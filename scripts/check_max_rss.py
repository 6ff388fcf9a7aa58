#!/usr/bin/env python3
"""Runs a command and fails when it fails or when its peak resident set
exceeds a limit.

Usage: scripts/check_max_rss.py LIMIT_MB -- CMD [ARG...]

The peak is getrusage(RUSAGE_CHILDREN).ru_maxrss once CMD has exited: the
largest max RSS of CMD and of any descendant it waited for.  The script
prints one line with the peak and the limit.  It exits with CMD's status
when CMD fails (1 when a signal ended it), 1 when the peak exceeds
LIMIT_MB, and 0 otherwise.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    try:
        limit_mb = float(argv[1])
    except ValueError:
        print(f"check_max_rss: LIMIT_MB is not a number: {argv[1]}",
              file=sys.stderr)
        return 2
    status = subprocess.run(argv[3:]).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"check_max_rss: max RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)")
    if status != 0:
        print(f"check_max_rss: FAIL: the command exited with status {status}",
              file=sys.stderr)
        return status if status > 0 else 1
    if peak_mb > limit_mb:
        print(f"check_max_rss: FAIL: {peak_mb:.1f} MB exceeds the "
              f"{limit_mb:g} MB limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
