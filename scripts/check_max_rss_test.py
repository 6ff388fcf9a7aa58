#!/usr/bin/env python3
"""Self-test of scripts/check_max_rss.py: a child that fills 64 MB fails a
32 MB limit and passes a 512 MB one, and a failing child fails the check
whatever the limit.

Usage: scripts/check_max_rss_test.py
"""

import os
import subprocess
import sys

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_max_rss.py")
# bytes * n writes every byte, so all 64 MB become resident.
FILL_64MB = "b = b'x' * (64 << 20); print(len(b))"


def run(limit_mb, code):
    return subprocess.run(
        [sys.executable, CHECK, str(limit_mb), "--", sys.executable, "-c",
         code],
        capture_output=True, text=True, timeout=60)


def main():
    errors = []
    cases = [
        (32, FILL_64MB, False, "64 MB child under a 32 MB limit"),
        (512, FILL_64MB, True, "64 MB child under a 512 MB limit"),
        (512, "import sys; sys.exit(3)", False, "child exiting 3"),
    ]
    for limit_mb, code, want_pass, what in cases:
        proc = run(limit_mb, code)
        passed = proc.returncode == 0
        if passed != want_pass:
            errors.append(f"{what}: exit status {proc.returncode}, want "
                          f"{'0' if want_pass else 'non-zero'}\n"
                          f"{proc.stdout}{proc.stderr}")
    if errors:
        print("check_max_rss self-test FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_max_rss self-test OK ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
