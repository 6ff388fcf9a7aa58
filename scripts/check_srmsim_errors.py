#!/usr/bin/env python3
"""srmsim rejects every malformed flag value the way it rejects other bad
input: exit status 1 and an `srmsim: ...` line on stderr, never an uncaught
exception (which aborts with status 134).  The cases cover bad topologies,
numbers that do not parse or overflow, an unknown trace category, timer
parameters the event queue or the RNG would refuse, the flags --pdes-verify
has no use for (its message must name the flag), and fault plans that name
a node or link the topology lacks (its message must name the event).

Usage: scripts/check_srmsim_errors.py PATH_TO_SRMSIM_BINARY
Exits non-zero with a report on any failure.
"""

import os
import subprocess
import sys
import tempfile

CASES = [
    ["--topo=bogus"],
    ["--degree=1"],
    ["--nodes=0"],
    ["--topo=chain", "--nodes=1"],
    # Every numeric flag names itself when its value does not parse.
    *([f"--{flag}=abc"] for flag in (
        "nodes", "members", "degree", "edges", "rounds", "seed", "areas",
        "local-ttl", "kernel-threads", "kernel-regions", "fec-max-k",
        "fault-deadline", "c1")),
    ["--seed=99999999999999999999999"],
    ["--trace-mask=bogus"],
    # Timer parameters must be finite and >= 0.
    ["--c1=-1"],
    ["--c1=nan"],
    ["--c2=-1"],
    ["--d1=inf"],
    ["--d2=-0.5"],
    ["--backoff=-1"],
    ["--backoff=nan"],
    # --pdes-verify prints a verdict over three runs, not one run's output.
    ["--pdes-verify", "--topo=ring", "--nodes=30", "--rounds=3",
     "--trace=t.jsonl"],
    ["--pdes-verify", "--topo=ring", "--nodes=30", "--rounds=3",
     "--verbose"],
]

# Fault plans naming ids a 30-node random tree lacks; each is written to a
# temporary directory and passed with --faults.
BAD_PLANS = [
    "join 5.0 99999",
    "partition 5.0 2 99999",
    "link_down 5.0 99999",
    "crash 5.0 99999",
]
PLAN_WORLD = ["--topo=random-tree", "--nodes=30", "--members=10",
              "--rounds=2", "--seed=11"]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    srmsim = os.path.abspath(sys.argv[1])  # each case runs from `tmp`
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        # (args, text the message must contain, or None)
        cases = []
        for args in CASES:
            named = None
            if args[-1].endswith("=abc") or args[0] == "--pdes-verify":
                named = args[-1].split("=")[0]
            cases.append((args, named))
        for i, plan in enumerate(BAD_PLANS):
            path = os.path.join(tmp, f"plan{i}.txt")
            with open(path, "w") as f:
                f.write(plan + "\n")
            cases.append(([*PLAN_WORLD, f"--faults={path}"],
                          plan.split()[0]))
        for args, named in cases:
            cmd = " ".join(["srmsim", *args])
            proc = subprocess.run([srmsim, *args], capture_output=True,
                                  text=True, timeout=60, cwd=tmp)
            if proc.returncode != 1:
                errors.append(f"{cmd}: exit status {proc.returncode}, "
                              "want 1")
            lines = proc.stderr.splitlines()
            if len(lines) != 1 or not lines[0].startswith("srmsim: "):
                errors.append(f"{cmd}: want one 'srmsim: ' line on stderr, "
                              f"got {lines!r}")
            elif named is not None and named not in lines[0]:
                errors.append(f"{cmd}: the message does not name {named}")
    if errors:
        print("srmsim error check FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"srmsim error check OK ({len(cases)} bad commands rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
