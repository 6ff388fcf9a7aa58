#!/usr/bin/env python3
"""Benchmark regression gate, run by CI.

Compares a freshly measured perf JSON (the two-level section -> metric ->
value format written by util::PerfJson) against the baseline committed in
the repository (BENCH_kernel.json, BENCH_session.json, BENCH_fault.json,
BENCH_fec.json, BENCH_workload.json) and fails on any regression.  Every
key falls in one of three classes, by name:

  * Wall-clock keys — ``*_per_second`` (higher is better), ``*_ns_per_*``
    and micro_kernel's ``loss_round_g100_us`` (lower is better) — fail
    only when they regress by more than the tolerance (default 20%).
  * Skipped keys — bookkeeping (threads, replications, rounds, regions),
    ``*wall_seconds`` (machine-dependent wall clock, recorded for
    information only) and speedup ratios.
  * Every other key is deterministic and must equal its baseline exactly:
    event, drop, loss, request, repair, byte, reconstruction and member
    counts, the hierarchy's area and timer-wheel sizes, and the
    virtual-time ``*_us`` latencies.  The simulator is deterministic for a
    given seed, so any drift, in either direction, is a behavioral change
    rather than measurement noise; an intended one ships with a
    regenerated baseline.

Metrics present on only one side (new benchmarks, retired benchmarks, or a
filtered smoke run that captured a subset) are not compared.
(scripts/check_bench_test.py pins this module's class/section rules.)

A section named in ``--sections`` that exists in the current run but not
in the baseline is *baseline-establishing*: its metrics are recorded, a
note is printed, and nothing is gated — committing the current JSON makes
it the baseline.  A requested section present in neither file is an error
(almost certainly a typo in the CI config).

``--golden BENCH`` makes the comparison a golden-output test (the tier-1
ctests ``Bench.*Golden``): BENCH first runs with ``--bench-json=CURRENT``
into a fresh CURRENT file, and a failing bench fails the test.  Then every
requested section must be in both files and carry every baseline key, and
only the exact (deterministic) keys are compared, so the verdict does not
depend on the host.

Classes are also section-aware: the ``pdes_kernel`` and
``pdes_stochastic`` sections' throughput keys (``*_per_second``) depend on
the CI runner's core count and are skipped, while their deterministic keys
(``events_total``, ``stochastic_drops_total``, ``virtual_makespan_us``)
are gated exactly — the parallel kernel promises event-order equivalence,
with or without keyed stochastic loss, so those must not drift at all.

Usage:
  scripts/check_bench.py --baseline BENCH_kernel.json --current /tmp/k.json
  scripts/check_bench.py --golden build/bench/fec_repair \
      --baseline BENCH_fec.json --current build/fec.json --sections fec_repair
  scripts/check_bench.py --baseline B.json --current C.json \
      --sections micro_kernel,session_scaling --tolerance 0.25

Exits non-zero with a report on any regression.
"""

import argparse
import json
import pathlib
import subprocess
import sys

SKIP_KEYS = {"threads", "replications", "rounds", "regions"}

# ``*_us`` keys that time the host (wall clock) rather than the simulation.
WALL_CLOCK_US_KEYS = {"loss_round_g100_us"}

# Sections whose throughput keys scale with the runner's thread count, not
# with code quality: only their deterministic keys are gated.
THREAD_SCALED_SECTIONS = {"pdes_kernel", "pdes_stochastic"}


def direction(key, section=""):
    """How `key` is gated: 'up' (larger is better) or 'down' (smaller is
    better) within the tolerance, 'exact', or None to skip."""
    if key in SKIP_KEYS or key.endswith("wall_seconds") or "speedup" in key:
        return None  # bookkeeping, machine-dependent wall clock, ratios
    if key.endswith("_per_second"):
        if section in THREAD_SCALED_SECTIONS:
            return None  # events/sec at N threads depends on the cores
        return "up"
    if "_ns_per_" in key or key in WALL_CLOCK_US_KEYS:
        return "down"
    return "exact"  # a deterministic count or virtual time


def load(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of sections")
    return data


def compare(baseline, current, sections, tolerance, golden=False):
    regressions = []
    errors = []
    notes = []
    compared = 0
    section_names = sections or sorted(set(baseline) & set(current))
    for section in section_names:
        if section not in baseline and section not in current:
            # Only reachable via --sections: a name in neither file is a
            # typo or a retired benchmark, not a baseline-establishing run.
            errors.append(
                f"  section '{section}' present in neither file (typo?)"
            )
            continue
        if golden and (section not in baseline or section not in current):
            where = "baseline" if section not in baseline else "current run"
            regressions.append(f"  {section}: absent from the {where}")
            continue
        if section not in baseline:
            # A brand-new benchmark: nothing to gate against yet.  The
            # current run's numbers become the baseline once committed.
            notes.append(
                f"  {section}: baseline-establishing "
                f"({len(current[section])} metrics recorded, not gated)"
            )
            continue
        if section not in current:
            notes.append(
                f"  {section}: absent from current run (not measured, "
                f"skipped)"
            )
            continue
        base_metrics = baseline[section]
        cur_metrics = current[section]
        if golden:
            regressions.extend(
                f"  {section}.{key}: absent from the current run"
                for key in sorted(set(base_metrics) - set(cur_metrics))
            )
        for key in sorted(set(base_metrics) & set(cur_metrics)):
            sense = direction(key, section)
            if sense is None or (golden and sense != "exact"):
                continue
            base = float(base_metrics[key])
            cur = float(cur_metrics[key])
            if sense == "exact":
                compared += 1
                if cur != base:
                    regressions.append(
                        f"  {section}.{key}: {base!r} -> {cur!r} "
                        f"(deterministic, must match the baseline exactly)"
                    )
                continue
            if base <= 0:
                continue
            compared += 1
            change = cur / base - 1.0
            regressed = (sense == "up" and change < -tolerance) or (
                sense == "down" and change > tolerance
            )
            if regressed:
                regressions.append(
                    f"  {section}.{key}: {base:g} -> {cur:g} "
                    f"({change:+.1%}, {'higher' if sense == 'up' else 'lower'}"
                    f" is better, tolerance {tolerance:.0%})"
                )
    return regressions, compared, notes, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed perf JSON to compare against")
    parser.add_argument("--current", required=True,
                        help="freshly measured perf JSON")
    parser.add_argument("--sections", default="",
                        help="comma-separated section filter "
                             "(default: sections present in both files)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression of wall-clock "
                             "keys (default 0.20)")
    parser.add_argument("--golden", metavar="BENCH",
                        help="golden-output test: run BENCH into a fresh "
                             "CURRENT, require every section and baseline "
                             "key, compare exact keys only")
    args = parser.parse_args()

    if args.golden:
        pathlib.Path(args.current).unlink(missing_ok=True)
        cmd = [args.golden, f"--bench-json={args.current}"]
        if subprocess.run(cmd).returncode != 0:
            print(f"check_bench: {' '.join(cmd)} failed", file=sys.stderr)
            return 1

    for path in (args.baseline, args.current):
        if not pathlib.Path(path).is_file():
            print(f"check_bench: missing file {path}", file=sys.stderr)
            return 1

    sections = [s for s in args.sections.split(",") if s]
    regressions, compared, notes, errors = compare(
        load(args.baseline), load(args.current), sections, args.tolerance,
        golden=bool(args.golden)
    )
    for line in notes:
        print(f"check_bench: note:{line}")
    if errors:
        print("check_bench: bad --sections request:", file=sys.stderr)
        for line in errors:
            print(line, file=sys.stderr)
        return 1
    if regressions:
        print("check_bench: regressions:", file=sys.stderr)
        for line in regressions:
            print(line, file=sys.stderr)
        return 1
    if compared == 0:
        print("check_bench: warning: no comparable metrics found",
              file=sys.stderr)
    else:
        print(f"check_bench: OK ({compared} metrics: deterministic keys "
              f"exact, wall-clock keys within {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
