"""The BENCH_*.json regression gate (`repro.perf.bench.check_baseline`).

Pure payload-level tests: the gate is what CI and the committed
trajectory rely on, so its comparison semantics (best engine vs best
engine, loose per-case bar, tight geomean bar) are pinned here without
timing anything.
"""

from __future__ import annotations

from repro.perf.bench import (
    RESIDENT_STEADY_MULTIPLIER,
    RESIDENT_STEADY_SCENARIO,
    check_baseline,
    default_cases,
)


def _payload(cases, geomean=0.0, geomean_fast=0.0):
    return {
        "cases": cases,
        "geomean_speedup": geomean,
        "geomean_fast_speedup": geomean_fast,
    }


def test_gate_passes_when_nothing_moved():
    baseline = _payload(
        [{"name": "a", "speedup": 2.0}], geomean=2.0
    )
    assert check_baseline(_payload(
        [{"name": "a", "speedup": 2.0}], geomean=2.0
    ), baseline) == []


def test_gate_compares_best_engine_on_both_sides():
    # Schema-1 baseline: `speedup` is reference/fast.  Schema-2 payload:
    # `speedup` is reference over a since-removed third engine and may
    # legitimately be lower than `fast_speedup` on a case where that
    # engine ~= fast minus scan overhead.
    baseline = _payload([{"name": "a", "speedup": 2.0}], geomean=2.0)
    payload = _payload(
        [{"name": "a", "speedup": 1.2, "fast_speedup": 1.9}],
        geomean=1.2,
        geomean_fast=1.9,
    )
    assert check_baseline(payload, baseline) == []


def test_schema3_payload_gates_against_schema2_baseline():
    # Schema 3 carries only `speedup` (reference/fast) again; it is
    # compared with the best of a schema-2 baseline's two columns.
    baseline = {
        "schema": 2,
        **_payload(
            [
                {"name": "thrash", "speedup": 1.8, "fast_speedup": 1.9},
                {"name": "resident", "speedup": 11.0, "fast_speedup": 5.0},
            ],
            geomean=4.4,
            geomean_fast=3.1,
        ),
    }
    passing = {
        "schema": 3,
        **_payload(
            [
                {"name": "thrash", "speedup": 1.85},
                {"name": "resident", "speedup": 10.5},
            ],
            geomean=4.4,
        ),
    }
    assert check_baseline(passing, baseline) == []
    # a resident case that lost its bulk windows (back to the schema-2
    # fast column) falls below 0.7x of the best baseline engine
    failing = {
        "schema": 3,
        **_payload(
            [
                {"name": "thrash", "speedup": 1.85},
                {"name": "resident", "speedup": 5.0},
            ],
            geomean=3.0,
        ),
    }
    messages = check_baseline(failing, baseline)
    assert any(m.startswith("resident:") for m in messages)
    assert any(m.startswith("geomean:") for m in messages)


def test_gate_flags_a_case_falling_off_a_cliff():
    baseline = _payload([{"name": "a", "speedup": 2.0}], geomean=2.0)
    payload = _payload(
        [{"name": "a", "speedup": 1.0, "fast_speedup": 1.1}],
        geomean=1.1,
        geomean_fast=1.1,
    )
    messages = check_baseline(payload, baseline)
    assert any("a:" in m for m in messages)


def test_gate_flags_geomean_regression_even_when_cases_pass():
    # Every case individually above the loose 0.7 bar, but the whole
    # matrix drifted below 0.9x: the tight geomean bar catches it.
    baseline = _payload(
        [{"name": n, "speedup": 2.0} for n in "abcd"], geomean=2.0
    )
    payload = _payload(
        [{"name": n, "speedup": 1.6} for n in "abcd"], geomean=1.6
    )
    messages = check_baseline(payload, baseline)
    assert messages and all("geomean" in m for m in messages)


def test_gate_ignores_cases_on_one_side_only():
    baseline = _payload([{"name": "old", "speedup": 9.0}], geomean=2.0)
    payload = _payload([{"name": "new", "speedup": 1.0}], geomean=2.0)
    assert check_baseline(payload, baseline) == []


def test_resident_steady_case_runs_longer():
    cases = {case.workload: case for case in default_cases()}
    assert cases[RESIDENT_STEADY_SCENARIO].refs_multiplier == (
        RESIDENT_STEADY_MULTIPLIER
    )
    others = [
        case
        for case in cases.values()
        if case.workload != RESIDENT_STEADY_SCENARIO
    ]
    assert all(case.refs_multiplier == 1 for case in others)
