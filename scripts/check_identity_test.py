#!/usr/bin/env python3
"""Self-test of scripts/check_identity.py --perfbench against stand-in
programs that print an srm_perfbench result line: host-measured metrics
may differ, a count or simulated ratio may not, every metric must be
measured on both sides, and a program that fails fails the check.

Usage: scripts/check_identity_test.py
"""

import json
import os
import stat
import subprocess
import sys
import tempfile

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_identity.py")

BASE = {
    "net.deliveries": (1892765, "count"),
    "srm.req_suppress_ratio": (0.93718038035664, "ratio"),
    "run_s": (1.5, "s"),
    "ns_per_delivery": (800.0, "ns"),
    "peak_rss_mb": (18.7, "MB"),
    "harness.bytes_per_member": (37006.0, "B"),
    "harness.loss_round_us_p50": (120.0, "us"),
    "trace.overhead": (0.14, "ratio"),
    "sim.pdes.cpu_util": (0.98, "ratio"),
}


def stand_in(directory, name, changes, status=0):
    """Writes a program printing BASE with `changes` applied (None drops a
    metric) for every workload, then exiting with `status`."""
    metrics = dict(BASE)
    metrics.update(changes)
    body = {k: {"value": v[0], "unit": v[1]}
            for k, v in metrics.items() if v is not None}
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        f.write(f"#!{sys.executable}\n"
                "import sys\n"
                f"print({json.dumps(json.dumps({'metrics': body}))})\n"
                f"sys.exit({status})\n")
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def main():
    cases = [
        ({}, 0, True, "identical"),
        ({"run_s": (1.2, "s"), "ns_per_delivery": (640.0, "ns"),
          "peak_rss_mb": (17.1, "MB"),
          "harness.bytes_per_member": (35000.0, "B"),
          "harness.loss_round_us_p50": (99.0, "us"),
          "trace.overhead": (0.2, "ratio"),
          "sim.pdes.cpu_util": (0.9, "ratio")}, 0, True,
         "only host-measured metrics differ"),
        ({"net.deliveries": (1892766, "count")}, 0, False, "a count differs"),
        ({"srm.req_suppress_ratio": (0.9371803803566401, "ratio")}, 0, False,
         "a simulated ratio differs in its last digit"),
        ({"net.deliveries": None}, 0, False, "a metric missing on one side"),
        ({}, 1, False, "the change exits 1"),
    ]
    errors = []
    with tempfile.TemporaryDirectory(prefix="check_identity_test.") as tmp:
        parent = stand_in(tmp, "parent", {})
        for i, (changes, status, want_pass, what) in enumerate(cases):
            change = stand_in(tmp, f"change{i}", changes, status)
            proc = subprocess.run(
                [sys.executable, CHECK, "--perfbench", parent, change],
                capture_output=True, text=True, timeout=60)
            if (proc.returncode == 0) != want_pass:
                errors.append(f"{what}: exit status {proc.returncode}, want "
                              f"{'0' if want_pass else '1'}\n"
                              f"{proc.stdout}{proc.stderr}")
    if errors:
        print("check_identity --perfbench self-test FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_identity --perfbench self-test OK ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
