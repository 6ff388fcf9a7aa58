#!/usr/bin/env python3
"""Self-test of scripts/sample_profile.py: a tiny program that spends about
three times as long in heavy_work() as in light_work() is profiled, and
heavy_work() must top the main program's list, with light_work() listed
and the shared-library section present.

Usage: scripts/sample_profile_test.py [CXX]

CXX compiles the tiny program (default $CXX, else c++).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

PROFILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "sample_profile.py")

# Two dependent multiply-add chains that the optimizer cannot shorten or
# merge (their constants differ), each call seeded differently so no call
# can be hoisted out of the loop; heavy_work runs three times the steps.
PROGRAM = r"""
#include <cstdint>
#include <cstdio>

__attribute__((noinline)) std::uint64_t heavy_work(std::uint64_t n,
                                                   std::uint64_t x) {
  for (std::uint64_t i = 0; i < n; ++i) x = x * 6364136223846793005ULL + i;
  return x;
}

__attribute__((noinline)) std::uint64_t light_work(std::uint64_t n,
                                                   std::uint64_t x) {
  for (std::uint64_t i = 0; i < n; ++i) x = x * 2862933555777941757ULL + i;
  return x;
}

int main() {
  constexpr std::uint64_t kSteps = 2000000;
  std::uint64_t sum = 0;
  for (std::uint64_t round = 0; round < 25; ++round) {
    sum = heavy_work(3 * kSteps, sum + round);
    sum = light_work(kSteps, sum);
  }
  std::printf("%llu\n", static_cast<unsigned long long>(sum));
  return 0;
}
"""


def main(argv):
    cxx = argv[1] if len(argv) > 1 else os.environ.get("CXX", "c++")
    workdir = tempfile.mkdtemp(prefix="sample_profile_test.")
    try:
        source = os.path.join(workdir, "two.cpp")
        program = os.path.join(workdir, "two")
        with open(source, "w") as f:
            f.write(PROGRAM)
        subprocess.run([cxx, "-O1", "-o", program, source], check=True)
        proc = subprocess.run(
            [sys.executable, PROFILE, "--us", "200", "--top", "5", "--",
             program], capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = proc.stdout
    errors = []
    if proc.returncode != 0:
        errors.append("exit status %d" % proc.returncode)
    lines = out.splitlines()
    try:
        first = lines[lines.index("  share  samples  symbol") + 1]
    except (ValueError, IndexError):
        first = ""
    if "heavy_work" not in first:
        errors.append("heavy_work() does not top the list: %r" % first)
    if not re.search(r"^\s+[\d.]+%\s+\d+\s+light_work", out, re.M):
        errors.append("light_work() is not listed")
    if "shared libraries and other mappings:" not in out:
        errors.append("no shared-library section")
    if errors:
        print("sample_profile self-test FAILED:")
        for e in errors:
            print("  " + e)
        print(out + proc.stderr)
        return 1
    print("sample_profile self-test OK")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
