"""Smoke test of the benchmark at a tiny budget.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Runs every workload once untraced and once traced with a few hundred
messages per cell, and checks that each metric named in BENCHMARK.json is
printed with its unit. At this budget the statistical output checks may fail,
so the result's ``correct`` flag is not asserted here; instead the checks
themselves are shown to catch a bounds row off by 1% and a cell flagged
``diverged``, and the host-speed scaling is shown to read a block of its own
kernels as their reference time.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--messages", "400"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode in (0, 1), done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert (done.returncode == 0) == (result["failed"] == 0)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(printed["value"]), metric["name"]


def test_bounds_row_off_by_one_percent_fails():
    reference = (BENCH / "reference" / "bounds_case1.csv").read_text()
    assert checks.bounds_failures(reference, reference, 2.0) == {}
    lines = reference.splitlines()
    cells = lines[40].split(",")
    cells[6] = f"{float(cells[6]) * 1.01:.6g}"  # single_lb
    lines[40] = ",".join(cells)
    failures = checks.bounds_failures("\n".join(lines) + "\n", reference, 2.0)
    assert list(failures) == [f"snr {cells[0]} dB @ load {cells[2]}"]
    assert "single_lb" in failures[list(failures)[0]][0]


# a grid_partitioning row at load 0.5 that passes every results check
GOOD_ROW = {
    "policy": "grid_partitioning", "load": "0.5", "arrival_rate": "0.25",
    "collectors": "1", "seeds": "1;2", "messages": "32000",
    "mean_delay": "5.3", "delay_ci": "0.07", "mean_travel_wait": "1.9",
    "travel_wait_ci": "0.05", "mean_service_wait": "1.4",
    "service_wait_ci": "0.04", "mean_occupancy": "1.33",
    "occupancy_ci": "0.03", "rho_measured": "0.498", "stability": "stable",
    "delay_over_bound": "1.66", "pk_wait": "0.666667", "single_lb": "3.18434",
    "partitioning_delay": "5.19469", "multi_lb_mdm": "2.66667",
    "multi_lb_partition": "2.93", "multi_lb_avg": "2.8",
    "multi_partitioning_delay": "5.19469",
}


def _results(row: dict[str, str]) -> str:
    return ",".join(row) + "\n" + ",".join(row.values()) + "\n"


def test_cell_flagged_diverged_fails():
    assert checks.results_failures(_results(GOOD_ROW), ["grid_partitioning"],
                                   [0.5], 32000) == {}
    flagged = dict(GOOD_ROW, stability="diverged")
    failures = checks.results_failures(_results(flagged),
                                       ["grid_partitioning"], [0.5], 32000)
    assert failures == {"grid_partitioning@0.5": ["verdict diverged"]}


def test_kernel_work_reads_as_its_reference_time():
    # a block of n kernels takes n * REFERENCE_S reference seconds at any
    # host speed, up to the kernel's own jitter
    times = []
    with hostspeed.Sampler().timing(times):
        for _ in range(50):
            hostspeed.kernel_seconds()
    own, reference = times[0]
    assert own > 0
    assert reference == pytest.approx(50 * hostspeed.REFERENCE_S, rel=0.25)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
