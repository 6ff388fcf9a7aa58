#!/usr/bin/env python3
"""Runs the byte-identity checklist with two builds and fails on the first
output that differs.

Usage: scripts/check_identity.py [--quick] [--out DIR] PARENT_BUILD CHANGE_BUILD
       scripts/check_identity.py --perfbench PARENT_EXE CHANGE_EXE
       scripts/check_identity.py --write-manifest PATH [--out DIR] BUILD
       scripts/check_identity.py --check-manifest PATH [--out DIR] BUILD

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

--write-manifest runs the full checklist once with BUILD and writes PATH:
each command's text with one SHA-256 digest per output (stdout, exit
status and each trace file).  --check-manifest runs the checklist with
BUILD and fails naming the first output whose digest differs from PATH's,
so a build is checked against the recorded outputs without a parent
build.  srmsim caps --kernel-threads at the host's cores and prints the
capped count, so a command asking for more kernel workers than the host
has is skipped on both sides (its entry then holds no digests); the
digests of every command that runs are compared in full.  The digests
pin the compiler and its standard library, as the golden BENCH files do.
A change that alters outputs on purpose rewrites the manifest from its
own build and names every changed entry.

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
import hashlib
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


def command_text(name, args):
    return " ".join([name, *args])


def min_cores(args):
    """Cores the host needs for the command to print what it prints
    everywhere: srmsim runs at most one kernel worker per core and prints
    the count it ran."""
    return max([int(a.split("=", 1)[1]) for a in args
                if a.startswith("--kernel-threads=")], default=1)


def run_one(build, name, args, plans_dir, cwd):
    os.makedirs(cwd)
    argv = [program(build, name)]
    for a in args:
        if PLAN in a:
            # Relative to the command's directory, so no output can carry
            # the temporary directory's name.
            head, plan = a.split(PLAN, 1)
            a = head + os.path.relpath(
                os.path.join(plans_dir, plan + ".txt"), cwd)
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


def run_commands(sides, commands, plans, out):
    """Runs each of `commands` once per build of `sides` (name -> build
    directory) from its own directory out/SIDE/NN-NAME; None runs a command
    on no side.  Returns an error message for the first command that did
    not exit 0, or None."""
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
        for i, command in enumerate(commands):
            if command is None:
                continue
            name, args = command
            for side, build in sides.items():
                cwd = os.path.join(out, side, f"{i:02d}-{name}")
                jobs.append(pool.submit(run_one, build, name, args, plans_dir,
                                        cwd))
        for job in jobs:
            job.result()

    # A command that fails on both sides would match vacuously.
    for side in sides:
        for i, command in enumerate(commands):
            if command is None:
                continue
            name, args = command
            cwd = os.path.join(out, side, f"{i:02d}-{name}")
            with open(os.path.join(cwd, "status.txt")) as f:
                status = f.read().strip()
            if status != "0":
                return (f"{cwd} exited with status {status}; command: "
                        f"{command_text(name, args)}")
    return None


def digests(cwd):
    """SHA-256 of every file a command left in its directory, by name."""
    out = {}
    for name in sorted(os.listdir(cwd)):
        with open(os.path.join(cwd, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


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


def check_programs(builds, commands, plans):
    """A usage error message, or None when every plan and program exists."""
    for name, args in commands:
        for a in args:
            if PLAN in a and a.split(PLAN, 1)[1] not in plans:
                return f"ci.yml writes no plan for {a}"
        for build in builds:
            if not os.access(program(build, name), os.X_OK):
                return f"no program {program(build, name)}"
    return None


def manifest(path, build, commands, plans, out, write):
    """--write-manifest (write=True) and --check-manifest."""
    cores = os.cpu_count() or 1
    if write:
        entries = [{"command": command_text(name, args),
                    "min_cores": min_cores(args)}
                   for name, args in commands]
    else:
        with open(path) as f:
            entries = json.load(f)["commands"]
        texts = [command_text(name, args) for name, args in commands]
        recorded = [e["command"] for e in entries]
        if recorded != texts:
            i = next((i for i, (a, b) in enumerate(zip(texts, recorded))
                      if a != b), min(len(texts), len(recorded)))
            at = lambda seq: seq[i] if i < len(seq) else None
            print(f"check_identity: FAIL: checklist command {i} is "
                  f"{at(texts)!r}, {path} records {at(recorded)!r}",
                  file=sys.stderr)
            return 1
    # An entry without digests was written on a host with too few cores.
    runs = [c if e["min_cores"] <= cores and (write or e["outputs"] is not None)
            else None for c, e in zip(commands, entries)]
    error = run_commands({"build": build}, runs, plans, out)
    if error is not None:
        print(f"check_identity: FAIL: {error}", file=sys.stderr)
        return 1
    skipped = 0
    for i, (command, entry) in enumerate(zip(runs, entries)):
        if command is None:
            skipped += 1
            if write:
                entry["outputs"] = None
            continue
        cwd = os.path.join(out, "build", f"{i:02d}-{command[0]}")
        got = digests(cwd)
        if write:
            entry["outputs"] = got
            continue
        want = entry["outputs"]
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                print(f"check_identity: FAIL: {os.path.join(cwd, name)} has "
                      f"digest {got.get(name)}, {path} records "
                      f"{want.get(name)}; command: {entry['command']}",
                      file=sys.stderr)
                return 1
    note = (f" ({skipped} skipped: more kernel workers than this host's "
            f"{cores} cores, or no digests recorded)" if skipped else "")
    if write:
        with open(path, "w") as f:
            json.dump({"schema_version": 1, "commands": entries}, f,
                      indent=1)
            f.write("\n")
        print(f"check_identity: wrote {path}: {len(commands)} commands{note}")
    else:
        print(f"check_identity: {len(commands)} commands, every output as "
              f"{path} records{note}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("builds", nargs="+")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--perfbench", action="store_true")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--write-manifest", metavar="PATH")
    modes.add_argument("--check-manifest", metavar="PATH")
    opts = parser.parse_args(argv[1:])
    manifest_path = opts.write_manifest or opts.check_manifest
    if len(opts.builds) != (1 if manifest_path else 2):
        parser.error("a manifest takes one build; a comparison takes two")
    if opts.perfbench:
        if opts.quick or opts.out or manifest_path:
            parser.error("--perfbench takes no --quick, --out or manifest")
        return check_perfbench(os.path.abspath(opts.builds[0]),
                               os.path.abspath(opts.builds[1]))
    if manifest_path and opts.quick:
        parser.error("a manifest covers the full checklist; no --quick")
    # Each command runs from its own directory, so resolve the builds first.
    builds = [os.path.abspath(b) for b in opts.builds]

    with open(CI_YML) as f:
        ci_text = f.read()
    plans = ci_plans(ci_text)
    commands = checklist(opts.quick, ci_text)
    error = check_programs(builds, commands, plans)
    if error is not None:
        print(f"check_identity: {error}", file=sys.stderr)
        return 2

    out = opts.out or tempfile.mkdtemp(prefix="check_identity.")
    if manifest_path:
        status = manifest(os.path.abspath(manifest_path), builds[0],
                          commands, plans, out,
                          write=opts.write_manifest is not None)
        if status == 0 and opts.out is None:
            shutil.rmtree(out)
        return status

    sides = {"parent": builds[0], "change": builds[1]}
    error = run_commands(sides, commands, plans, out)
    if error is not None:
        print(f"check_identity: FAIL: {error}", file=sys.stderr)
        return 1

    diff = first_difference(os.path.join(out, "parent"),
                            os.path.join(out, "change"))
    if diff is not None:
        index = int(diff.split("-", 1)[0])
        name, args = commands[index]
        print(f"check_identity: FAIL: {diff} differs "
              f"({os.path.join(out, 'parent', diff)} vs "
              f"{os.path.join(out, 'change', diff)}); command: "
              f"{command_text(name, args)}", file=sys.stderr)
        return 1
    print(f"check_identity: {len(commands)} commands, every output "
          f"identical")
    if opts.out is None:
        shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
