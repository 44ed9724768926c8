#!/usr/bin/env python3
"""Build and run the m3rma repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one process each
    python3 perfbench/run.py --selfcheck      # determinism self-check

Run from the root of a checkout. The first call configures and builds the
perfbench program from the checkout's sources into .bench_build/ (CMake,
Release). Measuring runs fix three things of the environment, because the
simulator's wall-clock speed is dominated by hand-offs between OS threads
and by set-up page faults (see perfbench/README.md):
  * the program is pinned to one CPU: the simulator lets exactly one of its
    threads run at a time, so this costs nothing and keeps hand-offs local;
  * it runs under SCHED_BATCH, so a woken thread does not preempt the thread
    that woke it only to block on the mutex that thread still holds;
  * glibc's mmap threshold is fixed, so every World's 16 MiB memory arenas
    are fresh pages, as in a process that builds one World, instead of
    sometimes reusing the previous round's.

With --workload, the last line of stdout is the program's JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["kv_zipf_torus", "lock_hotspot_64", "notify_fanin_lossy"]
# A measuring run must end within 180 s of its start (build excluded).
RUN_DEADLINE_S = 170
# The simulator's thread start-up has a rare data race
# (sim::Engine::spawn grows its process table while a just-started thread
# reads it) that can crash a run with SIGSEGV. A run killed by a signal is
# retried with the same arguments; every retry is reported on stderr.
ATTEMPTS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"m3rma sources not found under {ROOT}/src; nothing to build")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SRC, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def fix_environment():
    """Settings the measured program inherits (see the module docstring)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)


def run_program(workload, seed, seconds, trace, deadline):
    """Run the program once (retrying signal deaths); returns (rc, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    for attempt in range(1, ATTEMPTS + 1):
        left = deadline - time.monotonic()
        if left <= 0:
            break
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"{workload}: no result within {RUN_DEADLINE_S} s")
            return 1, ""
        if proc.returncode >= 0:
            return proc.returncode, out
        log(f"{workload} seed {seed}: attempt {attempt} died with signal "
            f"{-proc.returncode}; retrying")
    return 1, ""


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(stdout, trace):
    """The program's last line, validated against BENCHMARK.json."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        log(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
            f"{sorted(want.items())}")
        return None
    return result


def one(args):
    deadline = time.monotonic() + RUN_DEADLINE_S
    rc, out = run_program(args.workload, args.seed, args.seconds, args.trace,
                          deadline)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0 or check_result(out, args.trace) is None:
        sys.exit(rc or 1)


def every_workload(args):
    rows = {}
    failed = False
    for w in WORKLOADS:
        deadline = time.monotonic() + RUN_DEADLINE_S
        rc, out = run_program(w, args.seed, args.seconds, args.trace, deadline)
        sys.stdout.write(out)
        result = check_result(out, args.trace) if rc == 0 else None
        if result is None:
            failed = True
            continue
        samples = next((ln.split("samples=")[1].split()[0]
                        for ln in out.splitlines()
                        if ln.startswith("virtual:")), "?")
        rows[w] = (result, samples)
    print()
    print(f"{'metric':34s} {'unit':8s}" + "".join(f" {w:>20s}" for w in rows))
    for name, unit in expected_metrics(args.trace).items():
        cells = "".join(f" {r['metrics'][name]['value']:>20.6g}"
                        for r, _ in rows.values())
        print(f"{name:34s} {unit:8s}{cells}")
    print(f"{'samples per round':34s} {'count':8s}"
          + "".join(f" {s:>20s}" for _, s in rows.values()))
    print(f"{'correct':34s} {'':8s}"
          + "".join(f" {str(r['correct']):>20s}" for r, _ in rows.values()))
    sys.exit(1 if failed or not all(r["correct"] for r, _ in rows.values())
             else 0)


def selfcheck(args):
    """Same seed twice: identical virtual-time metrics. Next seed: a
    different op sequence."""
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        runs = []
        for seed in (args.seed, args.seed, args.seed + 1):
            rc, out = run_program(w, seed, 1, 0,
                                  time.monotonic() + RUN_DEADLINE_S)
            lines = out.splitlines()
            virt = next((ln for ln in lines if ln.startswith("virtual:")), "")
            ops = next((ln for ln in lines if ln.startswith("op_digest")), "")
            runs.append((rc, virt, ops))
        same = runs[0][0] == 0 and runs[0][1:] == runs[1][1:] and runs[0][1]
        differs = runs[2][0] == 0 and runs[2][2] != runs[0][2]
        print(f"{w}: same seed identical: {'yes' if same else 'NO'}; "
              f"next seed changes the op sequence: "
              f"{'yes' if differs else 'NO'}")
        print(f"  seed {args.seed}:     {runs[0][1]}")
        print(f"  seed {args.seed}:     {runs[1][1]}")
        print(f"  seed {args.seed + 1}: {runs[2][1]}")
        ok = ok and bool(same) and differs
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    build()
    fix_environment()
    if args.selfcheck:
        selfcheck(args)
    elif args.workload:
        one(args)
    else:
        every_workload(args)


if __name__ == "__main__":
    main()
