#!/usr/bin/env python3
"""The SRM reproduction's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (the simulator libraries from src/ plus the srm_perfbench program)
under .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only
rebuild what changed.  Then srm_perfbench runs the workload for --seconds of
measured passes and reports its metrics.

Output, on stdout:
  - a table of every metric the run measured, by name with its unit;
  - one line "record {...}": the full result with schema_version and the
    host facts (cores, build type, compiler, commit or source digest, seed)
    that make two results comparable (compare.py reads these lines);
  - last, one JSON object {"correct", "attempted", "failed", "metrics"}:
    with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
    its per-layer metrics (from a run that also makes traced passes).

Exit status 0 only when every correctness check passed.  On a failed check
the result line says correct: false and counts every operation as failed.
Without the simulator sources (src/) the build fails and nothing is printed
but the error, with a non-zero exit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA_VERSION = 1
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds srm_perfbench; returns its directory."""
    out_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(build_root(), "perfbench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    # A configure that completed left a build file behind; redo any other.
    if not any(os.path.exists(os.path.join(out_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd[:2]), tail))
    return out_dir


def compiler_of(out_dir):
    cache = os.path.join(out_dir, "CMakeCache.txt")
    path = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
    if not path:
        return "unknown"
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True).stdout
        return out.splitlines()[0].strip() if out else path
    except OSError:
        return path


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository rooted at ROOT; None when ROOT is no such
    repository's top level."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                            "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    lines = r.stdout.splitlines()
    if r.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build()
    exe = os.path.join(out_dir, "srm_perfbench")
    spans_dir = os.path.join(build_root(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--mode", "traced" if args.trace else "plain"]
    if args.trace:
        cmd += ["--spans-out", os.path.join(spans_dir, args.workload + ".u32")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("srm_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("srm_perfbench exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])

    errors = list(result["errors"])
    if proc.returncode not in (0, 1):
        errors.append("srm_perfbench exited %d" % proc.returncode)
    metrics = result["metrics"]
    final = {}
    for m in wanted:
        if m["name"] not in metrics:
            errors.append("metric %s was not measured" % m["name"])
            continue
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            errors.append("metric %s has unit %s, not %s"
                          % (m["name"], got["unit"], m["unit"]))
        final[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = not errors
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"]) if correct else attempted

    host = {
        "host_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "compiler": compiler_of(out_dir),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "kernel_threads": result["kernel_threads"],
    }

    print("workload %s  seed %d  trace %d  passes %d (+%d traced)"
          % (args.workload, args.seed, args.trace, result["passes"],
             result["traced_passes"]))
    print("host: " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    print("operations: attempted %d, failed %d" % (attempted, failed))
    for name, m in metrics.items():
        print("  %-34s %22.6f %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("ERROR: " + e)
    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "passes": result["passes"],
        "traced_passes": result["traced_passes"],
        "correct": correct,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": result["samples"],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
