#!/usr/bin/env python3
"""A bench rejects a bad flag value before it simulates anything: exit
status 1, nothing on stdout, and one stderr line that starts with the
bench's name and names the flag.

Usage: scripts/check_bench_rejects.py BENCH_BINARY FLAG -- [ARG...]

Runs BENCH_BINARY with the ARGs and checks the rejection, e.g.
  check_bench_rejects.py build/bench/fig13_adaptive --rounds -- --rounds=20
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__)
        return 2
    binary, flag, args = argv[1], argv[2], argv[4:]
    name = os.path.basename(binary)
    cmd = " ".join([name, *args])
    proc = subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=60)
    errors = []
    if proc.returncode != 1:
        errors.append(f"exit status {proc.returncode}, want 1")
    if proc.stdout:
        errors.append(f"want no stdout (no simulation), got "
                      f"{proc.stdout[:200]!r}")
    lines = proc.stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith(f"{name}: "):
        errors.append(f"want one '{name}: ' line on stderr, got {lines!r}")
    elif flag not in lines[0]:
        errors.append(f"the message does not name {flag}: {lines[0]!r}")
    if errors:
        print(f"{cmd}: rejection check FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"{cmd}: rejected ({lines[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
