#!/usr/bin/env python3
"""Build and run the folvec performance benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build/,
runs one workload and passes its output through; the last stdout line is the
JSON result. Run from the repository root.

Steadiness mode:
    python3 perfbench/run.py --steady <k> [--workloads a,b] [--seconds s]
                             [--repeat]

runs each workload k times on seeds 1 .. k (skipping HELDOUT_SEED) and prints
the median, quartiles and IQR/median of every end-to-end metric next to its
bound in BENCHMARK.json, flagging a spread above a third of the bound.
--repeat adds two untraced and two traced runs at seed 1 and checks that the
count metrics repeat exactly.

Exit status: 0 ok, 1 a wrong answer, 2 a refused configuration or a failed
build, 3 a program call threw, 4 a run exceeded RUN_TIMEOUT_S.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk_load", "symbol_intern", "serve_uniform", "serve_zipf"]
# Never used while tuning the benchmark; reserved for checking claims.
HELDOUT_SEED = 20261016
RUN_TIMEOUT_S = 170
EXIT_TIMEOUT = 4
# Metrics that count work rather than time it: identical on every run with
# the same seed.
EXACT_END_TO_END = ["modeled_us_per_op"]
EXACT_PER_LAYER = [
    "vm.instructions_per_op", "vm.mean_vl", "vm.mean_vl.arith",
    "vm.mean_vl.gather", "vm.mean_vl.scatter", "vm.mean_vl.compress",
    "vm.computed_bytes_per_op", "fol.rounds_per_call", "fol.mean_set_lanes",
    "fol.drained_frac", "fol.contested_frac", "hashing.rehashes",
    "hashing.slots_per_key", "serve.bloom.skip_frac",
    "serve.bloom.rebuilds_per_erase", "serve.shard_lanes_per_request",
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOLVEC_")}
    dropped = sorted(set(os.environ) - set(env))
    if dropped:
        log("ignoring " + ", ".join(dropped) + " (the benchmark pins its configuration)")
    return env


def build(env):
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "vm", "machine.h")):
        raise RuntimeError(f"no folvec sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_id(env):
    """Commit (when the tree is a git checkout) plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def run_once(binary, env, ident, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(build_dir(), "traces"), "--commit", ident]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return EXIT_TIMEOUT, "", None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return (proc.returncode or 1), proc.stdout, None
    return proc.returncode, proc.stdout, result


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def steady(args, binary, env, ident):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = [s for s in range(1, args.steady + 2) if s != HELDOUT_SEED][:args.steady]
    limits = bounds()
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            start = time.monotonic()
            rc, _, res = run_once(binary, env, ident, w, seed, args.seconds, 0)
            if rc != 0 or res is None or not res["correct"]:
                log(f"{w} seed {seed} failed (exit {rc})")
                ok = False
                continue
            runs.append(res["metrics"])
            log(f"{w} seed {seed} done in {time.monotonic() - start:.1f} s")
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'bound':>7}")
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = limits.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<20}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                  f"{bound if bound is not None else '-':>7}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    if args.repeat:
        ok = repeat(workloads, binary, env, ident, args.seconds, 1) and ok
    return ok


def repeat(workloads, binary, env, ident, seconds, seed):
    ok = True
    for w in workloads:
        for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
            got = []
            for _ in range(2):
                rc, _, res = run_once(binary, env, ident, w, seed, seconds, trace)
                if rc != 0 or res is None:
                    log(f"{w} trace {trace} failed (exit {rc})")
                    return False
                got.append({n: res["metrics"][n]["value"] for n in names})
            same = got[0] == got[1]
            ok = ok and same
            print(f"{w} trace {trace} seed {seed}: count metrics "
                  f"{'repeat exactly' if same else 'DIFFER'}")
            if not same:
                for n in names:
                    if got[0][n] != got[1][n]:
                        print(f"  {n}: {got[0][n]!r} vs {got[1][n]!r}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="K")
    p.add_argument("--workloads", help="comma-separated subset for --steady")
    p.add_argument("--repeat", action="store_true")
    args = p.parse_args()
    if args.steady is None and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required (or use --steady)")

    env = clean_env()
    try:
        binary = build(env)
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 2
    ident = source_id(env)
    if args.steady is not None:
        return 0 if steady(args, binary, env, ident) else 1
    rc, out, res = run_once(binary, env, ident, args.workload, args.seed,
                            args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if res is None:
        log("no result line")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
