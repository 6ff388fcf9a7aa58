#!/usr/bin/env python3
"""Self-test of scripts/check_identity.py against stand-in programs.

--perfbench: each stand-in prints an srm_perfbench result line;
host-measured metrics may differ, a count or simulated ratio may not,
every metric must be measured on both sides, and a program that fails
fails the check.

Manifest: a stand-in build holds a shell script per checklist program that
prints its arguments.  A manifest written from it must pass its own check,
and one extra byte of one program's output, a failing program or a
checklist that no longer matches the manifest must each fail it.

Usage: scripts/check_identity_test.py
"""

import json
import os
import stat
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(HERE, "check_identity.py")
sys.path.insert(0, HERE)
import check_identity  # noqa: E402  (the checklist the manifest covers)

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


def stand_in_build(directory, programs):
    """A build directory whose every checklist program prints its
    arguments."""
    for name in programs:
        sub = "examples" if name == "srmsim" else "bench"
        os.makedirs(os.path.join(directory, sub), exist_ok=True)
        path = os.path.join(directory, sub, name)
        with open(path, "w") as f:
            f.write('#!/bin/sh\necho "$@"\n')
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)


def manifest_errors(tmp):
    with open(check_identity.CI_YML) as f:
        commands = check_identity.checklist(False, f.read())
    build = os.path.join(tmp, "build")
    stand_in_build(build, {name for name, _ in commands})
    path = os.path.join(tmp, "manifest.json")

    def run(mode):
        return subprocess.run([sys.executable, CHECK, mode, path, build],
                              capture_output=True, text=True, timeout=120)

    errors = []
    for mode in ("--write-manifest", "--check-manifest"):
        proc = run(mode)
        if proc.returncode != 0:
            errors.append(f"{mode} on the stand-in build: exit status "
                          f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    if errors:
        return errors
    drifted = os.path.join(build, "bench", "fig3_random_trees")
    with open(drifted) as f:
        body = f.read()
    with open(os.path.join(tmp, "manifest.json")) as f:
        recorded = json.load(f)
    short = dict(recorded, commands=recorded["commands"][:-1])
    for what, program, manifest in (
            ("one byte more output", body.replace('"$@"', '"$@"x'), None),
            ("a failing program", body + "exit 1\n", None),
            ("a checklist the manifest does not match", body, short)):
        with open(drifted, "w") as f:
            f.write(program)
        if manifest is not None:
            with open(path, "w") as f:
                json.dump(manifest, f)
        proc = run("--check-manifest")
        if proc.returncode != 1 or (manifest is None and
                                    "fig3_random_trees" not in proc.stderr):
            errors.append(f"{what}: exit status {proc.returncode}, want 1 "
                          f"naming fig3_random_trees\n{proc.stderr}")
    return errors


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
        errors += manifest_errors(tmp)
    if errors:
        print("check_identity self-test FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_identity self-test OK ({len(cases)} --perfbench cases, "
          f"3 manifest drifts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
