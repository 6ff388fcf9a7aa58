#!/usr/bin/env python3
"""Runs the byte-identity checklist with two builds and fails on the first
output that differs.

Usage: scripts/check_identity.py [--quick] [--out DIR] PARENT_BUILD CHANGE_BUILD
       scripts/check_identity.py --perfbench PARENT_EXE CHANGE_EXE

PARENT_BUILD and CHANGE_BUILD are CMake build directories of this
repository (each holding examples/srmsim and bench/*).  Every command of the
checklist runs once per build, each from its own empty directory under
OUT/parent/ and OUT/change/.  Its stdout goes to stdout.txt and its exit
status to status.txt beside any file it writes (the traces), and the two
trees must be identical file for file.  Stderr is not compared.

The full checklist:
  - the srmsim runs of CI with every trace category (--trace-mask=all),
    the fault-plan runs fed the plans that .github/workflows/ci.yml writes
    (one of them composing the hierarchy, coded repair and a burst plan),
    and the parallel-kernel run whose exit status carries the conformance
    verdict;
  - the same srmsim runs again tracing every category but sim
    (--trace-mask=net,srm,fault): without sim tracing the network delivers
    a multicast's receivers inline, with it each delivery is a queued
    event, so a build that queued them where the other runs them inline
    is compared path against path, record for record;
  - every srmsim --pdes-verify command in ci.yml, verbatim;
  - the figure, ablation and baseline benches at small sizes;
  - the four workloads at --members=16 --seed=42.
--quick runs a subset in well under three seconds (one of its runs traced
without sim): with the same build on both sides it checks that the outputs
do not vary from run to run.

OUT defaults to a fresh temporary directory, removed when every output
matches.

--perfbench compares the benchmark's simulated outcome instead: PARENT_EXE
and CHANGE_EXE are two srm_perfbench programs (built by perfbench/run.py
under .bench_build/perfbench/).  Each runs the four workloads traced at
seed 1001 with a one-second budget, and every metric of its result must be
equal on both sides, counts and simulated ratios alike.  Metrics in bytes
or wall-clock units (B, MB, s, ns, us) are skipped, as are the two ratios
of wall-clock times, trace.overhead and sim.pdes.cpu_util.

Exit status: 0 when every command exits 0 on both sides and all outputs
match; 1 on a failed command or at the first difference (named by its path
under OUT, or by workload and metric); 2 on a usage error or a missing
program.
"""

import argparse
import concurrent.futures
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CI_YML = os.path.join(ROOT, ".github", "workflows", "ci.yml")
TIMEOUT_S = 600
PLAN = "@PLAN:"  # argument prefix: the path of a ci.yml fault plan

TRACE = ["--trace=t.jsonl", "--trace-mask=all"]
TRACE_NO_SIM = ["--trace=t.jsonl", "--trace-mask=net,srm,fault"]

SRMSIM_TRACED = [
    [],
    ["--topo=chain", "--nodes=8", "--members=0", "--rounds=2", "--c1=1",
     "--c2=0", "--d1=1", "--d2=0"],
    ["--topo=random-tree", "--nodes=100", "--members=40", "--rounds=8",
     "--seed=11", "--adaptive=true", "--faults=" + PLAN + "faults",
     "--fault-deadline=200"],
    ["--topo=random-tree", "--nodes=120", "--members=50", "--rounds=8",
     "--seed=4", "--faults=" + PLAN + "churn"],
    ["--topo=btree", "--nodes=30", "--members=15", "--rounds=6", "--seed=14",
     "--fec", "--faults=" + PLAN + "burst", "--fault-deadline=150"],
    ["--topo=lans", "--nodes=600", "--members=0", "--rounds=3", "--seed=5",
     "--hierarchy", "--areas=100", "--local-ttl=2"],
    ["--topo=transit-stub", "--nodes=300", "--members=0", "--rounds=2",
     "--seed=5", "--hierarchy", "--local-ttl=2"],
    ["--topo=random-graph", "--nodes=300", "--members=0", "--rounds=2",
     "--seed=5", "--hierarchy", "--local-ttl=2"],
    ["--topo=lans", "--nodes=120", "--members=0", "--rounds=2", "--seed=5",
     "--hierarchy", "--local-ttl=2", "--fec", "--faults=" + PLAN + "burst",
     "--fault-deadline=150"],
    ["--topo=btree", "--nodes=300", "--members=60", "--rounds=3", "--seed=7",
     "--kernel-threads=2", "--kernel-regions=4"],
]

WORKLOADS = ["flash-crowd", "conference", "diurnal", "repair-storm"]

BENCH_FLAGS = ["--threads=2", "--bench-json="]
BENCHES = (
    [(name, ["--trials=5"]) for name in (
        "fig3_random_trees", "fig4_sparse_tree", "fig4b_source_adjacent",
        "fig5_star_tradeoff", "fig6_chain_tradeoff",
        "fig7_dense_tree_tradeoff", "fig8_sparse_tree_tradeoff",
        "fig15_local_recovery", "fig_heterogeneous", "fig_star_analysis",
        "ablation_backoff", "ablation_suppression", "baseline_comparison")]
    + [("fig12_nonadaptive", ["--runs=3"]), ("fig13_adaptive", ["--runs=3"]),
       ("fig14_adaptive_sweep", ["--trials=2"])]
    + [(name, []) for name in (
        "fig_chain_analysis", "fig_extended_topologies", "fig_mixed_drops",
        "ablation_targets", "ablation_parity")])

PERFBENCH_WORKLOADS = ["fig3_sweep", "burst_stream", "burst_stream_pdes",
                       "hier_5k"]
PERFBENCH_ARGS = ["--seed", "1001", "--seconds", "1", "--mode", "traced"]
# Units that measure the host, not the simulation.
HOST_UNITS = {"B", "MB", "s", "ns", "us"}
HOST_RATIOS = {"trace.overhead", "sim.pdes.cpu_util"}

QUICK = [
    ("srmsim", TRACE),
    ("srmsim", SRMSIM_TRACED[1] + TRACE),
    ("srmsim", SRMSIM_TRACED[4] + TRACE),
    ("srmsim", SRMSIM_TRACED[4] + TRACE_NO_SIM),
    ("srmsim", ["--topo=lans", "--nodes=120", "--members=0", "--rounds=2",
                "--seed=5", "--hierarchy", "--local-ttl=2"] + TRACE),
    ("srmsim", ["--workload=repair-storm", "--members=16", "--seed=42"]),
    ("fig3_random_trees", ["--trials=2"] + BENCH_FLAGS),
]


def ci_plans(text):
    """The fault plans ci.yml writes with cat > /tmp/NAME.txt <<'EOF'."""
    plans = {}
    for m in re.finditer(r"cat > /tmp/(\w+)\.txt <<'EOF'\n(.*?)\n\s*EOF\n",
                         text, re.S):
        lines = [line.strip() for line in m.group(2).splitlines()]
        plans[m.group(1)] = "\n".join(lines) + "\n"
    return plans


def ci_pdes_verify(text):
    """Every srmsim --pdes-verify command of ci.yml, continuation lines
    joined, its /tmp plan paths turned into plan references."""
    joined = re.sub(r"\\\n\s*", "", text)
    commands = []
    for line in joined.splitlines():
        words = line.split()
        if not words or not words[0].endswith("examples/srmsim"):
            continue
        if "--pdes-verify" not in words:
            continue
        args = [re.sub(r"/tmp/(\w+)\.txt", PLAN + r"\1", w) for w in words[1:]]
        if args not in commands:
            commands.append(args)
    return commands


def program(build, name):
    sub = "examples" if name == "srmsim" else "bench"
    return os.path.join(build, sub, name)


def checklist(quick, ci_text):
    if quick:
        return list(QUICK)
    commands = [("srmsim", args + TRACE) for args in SRMSIM_TRACED]
    commands += [("srmsim", args + TRACE_NO_SIM) for args in SRMSIM_TRACED]
    commands += [("srmsim", args) for args in ci_pdes_verify(ci_text)]
    commands += [("srmsim", ["--workload=" + w, "--members=16", "--seed=42"])
                 for w in WORKLOADS]
    commands += [(name, args + BENCH_FLAGS) for name, args in BENCHES]
    return commands


def run_one(build, name, args, plans_dir, cwd):
    os.makedirs(cwd)
    argv = [program(build, name)]
    for a in args:
        if PLAN in a:
            head, plan = a.split(PLAN, 1)
            a = head + os.path.join(plans_dir, plan + ".txt")
        argv.append(a)
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out:
        try:
            status = subprocess.run(argv, cwd=cwd, stdout=out,
                                    stderr=subprocess.DEVNULL,
                                    timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    with open(os.path.join(cwd, "status.txt"), "w") as f:
        f.write(f"{status}\n")


def first_difference(a, b, rel=""):
    """Path (relative to the two roots) of the first entry, in sorted walk
    order, that is missing on one side or differs in content; None if the
    trees are identical."""
    da, db = os.path.join(a, rel), os.path.join(b, rel)
    names = sorted(set(os.listdir(da)) | set(os.listdir(db)))
    for name in names:
        path = os.path.join(rel, name)
        pa, pb = os.path.join(a, path), os.path.join(b, path)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            return path
        if os.path.isdir(pa) != os.path.isdir(pb):
            return path
        if os.path.isdir(pa):
            inner = first_difference(a, b, path)
            if inner is not None:
                return inner
        elif not filecmp.cmp(pa, pb, shallow=False):
            return path
    return None


def perfbench_metrics(exe, workload):
    """The metrics of one traced srm_perfbench run, or an error string."""
    try:
        proc = subprocess.run([exe, "--workload", workload] + PERFBENCH_ARGS,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"{exe} --workload {workload} timed out"
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        return (f"{exe} --workload {workload} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])["metrics"]


def check_perfbench(parent_exe, change_exe):
    for exe in (parent_exe, change_exe):
        if not os.access(exe, os.X_OK):
            print(f"check_identity: no program {exe}", file=sys.stderr)
            return 2
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, min(4, os.cpu_count() or 1))) as pool:
        runs = {(w, exe): pool.submit(perfbench_metrics, exe, w)
                for w in PERFBENCH_WORKLOADS
                for exe in (parent_exe, change_exe)}
    compared = 0
    for w in PERFBENCH_WORKLOADS:
        parent, change = runs[w, parent_exe].result(), runs[w, change_exe].result()
        for side in (parent, change):
            if isinstance(side, str):
                print(f"check_identity: FAIL: {side}", file=sys.stderr)
                return 1
        for name in sorted(set(parent) | set(change)):
            if name not in parent or name not in change:
                print(f"check_identity: FAIL: {w}: metric {name} is measured "
                      f"on one side only", file=sys.stderr)
                return 1
            if parent[name]["unit"] in HOST_UNITS or name in HOST_RATIOS:
                continue
            if parent[name] != change[name]:
                print(f"check_identity: FAIL: {w}: {name} is "
                      f"{parent[name]['value']!r} against "
                      f"{change[name]['value']!r}", file=sys.stderr)
                return 1
            compared += 1
    print(f"check_identity: {len(PERFBENCH_WORKLOADS)} perfbench workloads, "
          f"{compared} metrics, every one equal")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_build")
    parser.add_argument("change_build")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--perfbench", action="store_true")
    opts = parser.parse_args(argv[1:])
    if opts.perfbench:
        if opts.quick or opts.out:
            parser.error("--perfbench takes no --quick or --out")
        return check_perfbench(os.path.abspath(opts.parent_build),
                               os.path.abspath(opts.change_build))
    # Each command runs from its own directory, so resolve the builds first.
    opts.parent_build = os.path.abspath(opts.parent_build)
    opts.change_build = os.path.abspath(opts.change_build)

    with open(CI_YML) as f:
        ci_text = f.read()
    plans = ci_plans(ci_text)
    commands = checklist(opts.quick, ci_text)
    for name, args in commands:
        for a in args:
            if PLAN in a and a.split(PLAN, 1)[1] not in plans:
                print(f"check_identity: ci.yml writes no plan for {a}",
                      file=sys.stderr)
                return 2
        for build in (opts.parent_build, opts.change_build):
            if not os.access(program(build, name), os.X_OK):
                print(f"check_identity: no program {program(build, name)}",
                      file=sys.stderr)
                return 2

    out = opts.out or tempfile.mkdtemp(prefix="check_identity.")
    sides = {"parent": opts.parent_build, "change": opts.change_build}
    for side in sides:
        shutil.rmtree(os.path.join(out, side), ignore_errors=True)
    plans_dir = os.path.join(out, "plans")
    os.makedirs(plans_dir, exist_ok=True)
    for plan, body in plans.items():
        with open(os.path.join(plans_dir, plan + ".txt"), "w") as f:
            f.write(body)

    jobs = []
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, min(4, os.cpu_count() or 1))) as pool:
        for i, (name, args) in enumerate(commands):
            for side, build in sides.items():
                cwd = os.path.join(out, side, f"{i:02d}-{name}")
                jobs.append(pool.submit(run_one, build, name, args, plans_dir,
                                        cwd))
        for job in jobs:
            job.result()

    # A command that fails on both sides would match vacuously.
    for side in sides:
        for i, (name, args) in enumerate(commands):
            cwd = os.path.join(out, side, f"{i:02d}-{name}")
            with open(os.path.join(cwd, "status.txt")) as f:
                status = f.read().strip()
            if status != "0":
                print(f"check_identity: FAIL: {cwd} exited with status "
                      f"{status}; command: {name} {' '.join(args)}",
                      file=sys.stderr)
                return 1

    diff = first_difference(os.path.join(out, "parent"),
                            os.path.join(out, "change"))
    if diff is not None:
        index = int(diff.split("-", 1)[0])
        name, args = commands[index]
        print(f"check_identity: FAIL: {diff} differs "
              f"({os.path.join(out, 'parent', diff)} vs "
              f"{os.path.join(out, 'change', diff)}); command: {name} "
              f"{' '.join(args)}", file=sys.stderr)
        return 1
    print(f"check_identity: {len(commands)} commands, every output "
          f"identical")
    if opts.out is None:
        shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
