#!/usr/bin/env python3
"""Fails if a GitHub Actions workflow does not parse.

    python3 scripts/check_workflows.py [DIR]

Loads every file under DIR (default: .github/workflows next to this script's
parent directory) with yaml.safe_load and checks that each defines a
non-empty `jobs` mapping.  A workflow that does not parse runs no job at all,
so it cannot report its own error; ctest runs this script instead.

Exit status: 0 when every workflow parses, 1 when one does not, 77 (the skip
code the ctest registration declares) when PyYAML is not installed.
"""

import os
import sys

try:
    import yaml
except ImportError:
    print("check_workflows: PyYAML is not installed; skipping")
    sys.exit(77)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(path):
    """Returns an error message for `path`, or None when it is valid."""
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except yaml.YAMLError as e:
        return str(e)
    jobs = doc.get("jobs") if isinstance(doc, dict) else None
    if not isinstance(jobs, dict) or not jobs:
        return "no jobs mapping"
    return None


def main():
    directory = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, ".github", "workflows")
    paths = sorted(os.path.join(directory, name)
                   for name in os.listdir(directory))
    paths = [p for p in paths if os.path.isfile(p)]
    if not paths:
        print("check_workflows: no workflow files in " + directory)
        return 1
    failed = 0
    for path in paths:
        error = check(path)
        if error is None:
            print("ok   " + os.path.relpath(path, ROOT))
        else:
            failed += 1
            print("FAIL " + os.path.relpath(path, ROOT) + ": " + error)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
