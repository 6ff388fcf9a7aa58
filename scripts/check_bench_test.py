#!/usr/bin/env python3
"""Self-test for scripts/check_bench.py's gating logic.

The regression gate guards every committed BENCH_*.json (kernel, session,
fault, fec, workload), so its key-class/section rules are themselves
load-bearing: a typo that silently skipped ``*_us`` keys would disable the
whole virtual-time gate.  These tests pin the behavior down:

  * key classes (``*_per_second`` up and ``*_ns_per_*`` and the wall-clock
    ``loss_round_g100_us`` down within the tolerance; deterministic counts
    and virtual-time ``*_us`` keys exact; bookkeeping, wall-clock seconds
    and speedup ratios skipped; thread-scaled sections gating only their
    deterministic keys),
  * regression detection: tolerance keys in both directions with the
    tolerance applied, exact keys on any drift,
  * section handling: baseline-establishing runs, sections absent from the
    current run, and the section-in-neither-file error,
  * golden mode: a missing section or baseline key fails, and only the
    exact keys are compared.

Written pytest-style (plain ``test_*`` functions with asserts) but
self-contained: ``python3 scripts/check_bench_test.py`` runs them all and
exits non-zero on the first failure, so CI needs no pytest install.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_bench  # noqa: E402


# --- direction inference ----------------------------------------------------

def test_direction_per_second_is_up():
    assert check_bench.direction("replications_per_second") == "up"


def test_direction_wall_clock_costs_are_down():
    assert check_bench.direction("event_ns_per_op") == "down"
    assert check_bench.direction("loss_round_g100_us", "micro_kernel") == "down"


def test_direction_virtual_time_is_exact():
    assert check_bench.direction("recovery_p99_us") == "exact"
    assert check_bench.direction("virtual_makespan_us", "pdes_kernel") == "exact"


def test_direction_skips_bookkeeping_keys():
    for key in ("threads", "replications", "rounds", "regions"):
        assert check_bench.direction(key) is None


def test_direction_skips_wall_clock():
    assert check_bench.direction("wall_seconds") is None
    assert check_bench.direction("sweep_wall_seconds") is None


def test_direction_skips_speedup_ratios():
    assert check_bench.direction("speedup_vs_flat5000", "hierarchy") is None
    assert check_bench.direction("churn2_speedup") is None


def test_direction_gates_plain_counters_exactly():
    # Counters carry no better/worse sense, but the simulation is
    # deterministic: any drift is a behavioral change.
    for key in ("losses", "events_total", "stochastic_drops_total",
                "churn10_losses", "churn10_unrecovered", "conference_requests",
                "conference_repairs", "conference_scripted_drops",
                "fec_on_parity_bytes", "fec_on_reconstructions", "members",
                "g5000_areas", "g5000_wheel_buckets", "g5000_wheel_items"):
        assert check_bench.direction(key) == "exact", key


def test_thread_scaled_section_skips_throughput_keeps_deterministic_keys():
    for section in ("pdes_kernel", "pdes_stochastic"):
        assert section in check_bench.THREAD_SCALED_SECTIONS
        assert check_bench.direction("events_per_second", section) is None
        assert check_bench.direction("speedup_4_threads", section) is None
        assert check_bench.direction("merge_p99_us", section) == "exact"
        assert check_bench.direction("events_total", section) == "exact"
    # The same keys gate normally outside the thread-scaled sections.
    assert check_bench.direction("events_per_second", "workload_suite") == "up"


# --- regression detection ---------------------------------------------------

def _compare(baseline, current, sections=(), tolerance=0.20):
    return check_bench.compare(baseline, current, list(sections), tolerance)


def test_lower_is_better_regression_detected():
    regressions, compared, notes, errors = _compare(
        {"s": {"event_ns_per_op": 100.0}}, {"s": {"event_ns_per_op": 130.0}}
    )
    assert compared == 1
    assert len(regressions) == 1 and "event_ns_per_op" in regressions[0]
    assert not notes and not errors


def test_higher_is_better_regression_detected():
    regressions, _, _, _ = _compare(
        {"s": {"ops_per_second": 100.0}}, {"s": {"ops_per_second": 70.0}}
    )
    assert len(regressions) == 1


def test_improvement_and_within_tolerance_pass():
    regressions, compared, _, _ = _compare(
        {"s": {"event_ns_per_op": 100.0, "ops_per_second": 50.0}},
        {"s": {"event_ns_per_op": 115.0, "ops_per_second": 60.0}},
    )
    assert compared == 2
    assert regressions == []


def test_tolerance_is_respected():
    baseline = {"s": {"event_ns_per_op": 100.0}}
    current = {"s": {"event_ns_per_op": 130.0}}
    assert _compare(baseline, current, tolerance=0.20)[0]
    assert not _compare(baseline, current, tolerance=0.50)[0]


def test_counter_off_by_one_fails():
    regressions, compared, _, _ = _compare(
        {"pdes_kernel": {"events_total": 1000}},
        {"pdes_kernel": {"events_total": 1001}},
    )
    assert compared == 1
    assert len(regressions) == 1 and "events_total" in regressions[0]


def test_virtual_time_up_one_percent_fails():
    regressions, _, _, _ = _compare(
        {"s": {"recovery_p99_us": 100.0}}, {"s": {"recovery_p99_us": 101.0}}
    )
    assert len(regressions) == 1 and "recovery_p99_us" in regressions[0]


def test_exact_keys_fail_on_drift_either_way_and_pass_when_equal():
    baseline = {"s": {"recovery_p99_us": 100.0, "churn2_unrecovered": 0}}
    assert _compare(baseline, {"s": {"recovery_p99_us": 99.0,
                                     "churn2_unrecovered": 0}})[0]
    # A zero baseline is compared too: 0 -> 1 unrecovered losses fails.
    assert _compare(baseline, {"s": {"recovery_p99_us": 100.0,
                                     "churn2_unrecovered": 1}})[0]
    regressions, compared, _, _ = _compare(baseline, baseline)
    assert regressions == [] and compared == 2


def test_wall_clock_us_key_keeps_the_tolerance():
    regressions, compared, _, _ = _compare(
        {"micro_kernel": {"loss_round_g100_us": 100.0}},
        {"micro_kernel": {"loss_round_g100_us": 110.0}},
    )
    assert compared == 1
    assert regressions == []


def test_one_sided_metrics_are_skipped():
    # A metric present in only one file (new or retired benchmark) is not
    # compared at all.
    regressions, compared, _, _ = _compare(
        {"s": {"old_us": 10.0}}, {"s": {"new_us": 99999.0}}
    )
    assert compared == 0
    assert regressions == []


# --- section handling -------------------------------------------------------

def test_baseline_establishing_section_notes_not_gates():
    regressions, compared, notes, errors = _compare(
        {}, {"workload_suite": {"flash_crowd_recovery_p99_us": 1e6}},
        sections=["workload_suite"],
    )
    assert regressions == [] and compared == 0 and errors == []
    assert len(notes) == 1 and "baseline-establishing" in notes[0]


def test_section_absent_from_current_run_is_skipped():
    regressions, compared, notes, errors = _compare(
        {"workload_suite": {"flash_crowd_recovery_p99_us": 1e6}}, {},
        sections=["workload_suite"],
    )
    assert regressions == [] and compared == 0 and errors == []
    assert len(notes) == 1 and "absent from current run" in notes[0]


def test_section_in_neither_file_is_an_error():
    _, _, _, errors = _compare({}, {}, sections=["wrokload_suite"])
    assert len(errors) == 1 and "neither file" in errors[0]


def test_unfiltered_compare_uses_section_intersection():
    # Without --sections only sections present in both files are compared,
    # so a baseline-establishing section needs the explicit filter to be
    # noticed at all.
    regressions, compared, notes, errors = _compare(
        {"a": {"x_us": 10.0}},
        {"a": {"x_us": 10.0}, "b": {"y_us": 1.0}},
    )
    assert compared == 1
    assert regressions == [] and notes == [] and errors == []


# --- golden mode ------------------------------------------------------------

def test_golden_fails_on_a_missing_section():
    regressions, compared, notes, _ = check_bench.compare(
        {"fec_repair": {"fec_on_losses": 144}}, {}, ["fec_repair"], 0.20,
        golden=True)
    assert compared == 0 and notes == []
    assert len(regressions) == 1 and "absent from the current run" in \
        regressions[0]
    regressions, _, notes, _ = check_bench.compare(
        {}, {"fec_repair": {"fec_on_losses": 144}}, ["fec_repair"], 0.20,
        golden=True)
    assert notes == [] and len(regressions) == 1 and "baseline" in \
        regressions[0]


def test_golden_fails_on_a_missing_baseline_key():
    # Skipped keys must be present too; only their values go unchecked.
    baseline = {"s": {"losses": 9, "threads": 1, "wall_seconds": 0.1}}
    regressions, compared, _, _ = check_bench.compare(
        baseline, {"s": {"losses": 9, "wall_seconds": 0.2}}, [], 0.20,
        golden=True)
    assert compared == 1
    assert regressions == ["  s.threads: absent from the current run"]


def test_golden_compares_exact_keys_only():
    baseline = {"s": {"losses": 9, "event_ns_per_op": 100.0}}
    current = {"s": {"losses": 9, "event_ns_per_op": 500.0}}
    regressions, compared, _, _ = check_bench.compare(
        baseline, current, [], 0.20, golden=True)
    assert regressions == [] and compared == 1
    current["s"]["losses"] = 10
    assert check_bench.compare(baseline, current, [], 0.20, golden=True)[0]


def main():
    tests = sorted(
        (name, fn) for name, fn in globals().items()
        if name.startswith("test_") and callable(fn)
    )
    for name, fn in tests:
        try:
            fn()
        except AssertionError:
            print(f"check_bench_test: FAIL {name}", file=sys.stderr)
            raise
        print(f"check_bench_test: ok {name}")
    print(f"check_bench_test: {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
