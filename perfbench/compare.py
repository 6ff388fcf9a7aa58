#!/usr/bin/env python3
"""Compares two sets of benchmark results, parent (A) against change (B).

    python3 perfbench/compare.py A.txt B.txt

Each file holds the stdout of any number of perfbench/run.py runs; only the
"record {...}" lines are read.  For every (workload, metric) the script
prints both sides' medians, quartiles and run counts.  An end-to-end metric
of BENCHMARK.json whose B median is worse than A's by more than its bound
is marked REGRESSION; one whose A runs spread wider than the bound is
marked UNRESOLVED.  Records whose host facts differ (cores, CPU, build
type, compiler, kernel threads), or whose schema_version differs, are
flagged: their numbers are not comparable.  Exit status 1 on any
regression, host mismatch or incorrect run.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("host_cores", "cpu_model", "build_type", "compiler",
             "kernel_threads")


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            if line.startswith("record "):
                records.append(json.loads(line[len("record "):]))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(sys.argv[1]), load(sys.argv[2])]
    bad = False

    facts = {}  # workload -> distinct (schema, host facts) tuples
    for records in sides:
        for r in records:
            facts.setdefault(r["workload"], set()).add(
                (r["schema_version"],) +
                tuple(str(r["host"].get(k)) for k in HOST_KEYS))
            if not r["correct"]:
                print("INCORRECT: %s seed %d: %s"
                      % (r["workload"], r["seed"], "; ".join(r["errors"])))
                bad = True
    for workload, seen in sorted(facts.items()):
        if len(seen) > 1:
            print("HOST MISMATCH on %s: results come from different hosts "
                  "or builds:" % workload)
            for f in sorted(seen):
                print("  schema %s; " % f[0] +
                      ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, f[1:])))
            bad = True

    groups = {}
    for side, records in enumerate(sides):
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, ([], [], m["unit"]))[side].append(
                    m["value"])
    print("%-18s %-34s %12s %12s %8s  %s"
          % ("workload", "metric", "A median", "B median", "B/A", "verdict"))
    for (workload, trace, name), (a, b, unit) in sorted(groups.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        verdict = ""
        spec_m = bounds.get(name) if trace == 0 else None
        if spec_m and ma:
            worse = (mb - ma) / ma if spec_m["better"] == "lower" \
                else (ma - mb) / ma
            qa = quartiles(a)
            if (qa[1] - qa[0]) / ma > spec_m["bound"]:
                verdict = "UNRESOLVED (A spread > bound)"
            elif worse > spec_m["bound"]:
                verdict = "REGRESSION (> %g)" % spec_m["bound"]
                bad = True
            else:
                verdict = "ok"
        ratio = "%8.3f" % (mb / ma) if ma else "%8s" % "-"
        print("%-18s %-34s %12.6g %12.6g %s  %s [%s; n=%d/%d]"
              % (workload, name, ma, mb, ratio, verdict, unit, len(a),
                 len(b)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
