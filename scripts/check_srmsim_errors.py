#!/usr/bin/env python3
"""srmsim rejects bad topology flags the way it rejects other bad input:
exit status 1 and an `srmsim: ...` line on stderr, never an uncaught
exception (which aborts with status 134).

Usage: scripts/check_srmsim_errors.py PATH_TO_SRMSIM_BINARY
Exits non-zero with a report on any failure.
"""

import subprocess
import sys

CASES = [
    ["--topo=bogus"],
    ["--degree=1"],
    ["--nodes=0"],
    ["--topo=chain", "--nodes=1"],
]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    errors = []
    for args in CASES:
        cmd = " ".join(["srmsim", *args])
        proc = subprocess.run([sys.argv[1], *args], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 1:
            errors.append(f"{cmd}: exit status {proc.returncode}, want 1")
        if not any(line.startswith("srmsim: ")
                   for line in proc.stderr.splitlines()):
            errors.append(f"{cmd}: no 'srmsim: ' line on stderr")
    if errors:
        print("srmsim error check FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"srmsim error check OK ({len(CASES)} bad commands rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
