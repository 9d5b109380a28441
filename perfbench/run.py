#!/usr/bin/env python3
"""Build and run one workload of the CSS-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (the talon
libraries from src/ plus the css_bench driver) in .bench_build/, runs the
workload, checks its exact work counters against any earlier passing run
of the same seed, --seconds and sources, writes a record with host
metadata under .bench_build/records/, and prints as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a layer the workload does not exercise reads 0) and
writes the run's spans to .bench_build/traces/. Exits non-zero when the
build fails, the workload crashes, or any correctness check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build_dir():
    # The bench build lives inside the source tree: CARGO_TARGET_DIR when
    # set (the usual build-output variable), else .bench_build/.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(ROOT, base))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(out_dir):
    """Configure and build css_bench; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                fail("cmake configure failed")
        step = ["cmake", "--build", cmake_dir, "--target", "css_bench", "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed")
    binary = os.path.join(cmake_dir, "css_bench")
    if not os.access(binary, os.X_OK):
        fail(f"no binary at {binary}")
    return binary


def source_identity():
    """The commit when the checkout is a git repository, plus a digest of
    every source the benchmark builds (the checkout may not be one)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return commit, digest.hexdigest()[:16]


def run_workload(binary, args, trace_path):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if trace_path:
        command += ["--trace-out", trace_path]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return process.returncode, stdout


def check_counters(out_dir, key, counters, passed):
    """Exact counters must repeat bit-for-bit for one (workload, seed,
    seconds, sources); returns the names that changed. Only a run that
    passed its own checks becomes the reference."""
    path = os.path.join(out_dir, "records", "counters.json")
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = {}
        if os.path.exists(path):
            with open(path) as handle:
                known = json.load(handle)
        previous = known.get(key)
        if previous is None:
            if not passed:
                return []
            known[key] = counters
            with open(path + ".tmp", "w") as handle:
                json.dump(known, handle, indent=1, sort_keys=True)
            os.replace(path + ".tmp", path)
            return []
    names = set(previous) | set(counters)
    return sorted(n for n in names if previous.get(n) != counters.get(n))


def main():
    args = parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    out_dir = build_dir()
    binary = build(out_dir)
    for sub in ("records", "traces"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    traced = args.trace == "1"
    # One span dump per workload: the latest traced run's.
    trace_path = (os.path.join(out_dir, "traces", f"{args.workload}.jsonl")
                  if traced else None)

    returncode, stdout = run_workload(binary, args, trace_path)
    lines = stdout.rstrip("\n").splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited {returncode} without a result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    commit, digest = source_identity()
    passed = returncode == 0 and failed == 0 and bool(raw["correct"])
    changed = check_counters(
        out_dir, f"{args.workload}|{args.seed}|{args.seconds!r}|{digest}",
        raw["counters"], passed)
    for name in changed:
        print(f"CHECK FAILED: exact counter {name} differs from an earlier run "
              f"of this seed, --seconds and sources")
    attempted += 1
    failed += 1 if changed else 0

    section, wanted = (("per_layer", spec["per_layer"]) if traced
                       else ("end_to_end", spec["end_to_end"]))
    measured = raw[section]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            if measured[name]["unit"] != metric["unit"]:
                fail(f"{name}: unit {measured[name]['unit']} != {metric['unit']}")
            value = measured[name]["value"]
        elif traced:
            value = 0.0  # the layer is not exercised by this workload
        else:
            fail(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}

    correct = failed == 0 and returncode == 0 and bool(raw["correct"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": traced,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": dict(raw["host"], commit=commit, source_digest=digest),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "end_to_end": raw["end_to_end"],
        "per_layer": raw["per_layer"],
        "counters": raw["counters"],
        "details": raw["details"],
        "trace_file": os.path.relpath(trace_path, ROOT) if trace_path else None,
    }
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, "records", record_name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
