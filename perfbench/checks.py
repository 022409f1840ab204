"""Output checks for the benchmark workloads.

Each check reads one CSV the CLI wrote and returns ``{row label: [reasons]}``
for the rows that fail; an empty dict means every row passed. The checks
only parse text, so the smoke test can feed them doctored tables.
"""

from __future__ import annotations

import csv
import io
import math

# Acceptance criteria 2 and 3 allow the simulated grid and fleet sweep delay
# to sit within 5% of its closed form.
FORMULA_TOLERANCE = 0.05
FORMULA_COLUMN = {
    "grid_partitioning": "partitioning_delay",
    "multi_partitioning": "multi_partitioning_delay",
}


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float:
    """A CSV number; the CLI writes NaN as an empty cell."""
    return float(cell) if cell else math.nan


def last_digit(value: float) -> float:
    """One unit in the 6th significant digit, the resolution of the CLI's
    ``%.6g`` output."""
    if value == 0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def results_failures(text: str, policies, loads, kept: int
                     ) -> dict[str, list[str]]:
    """Check a ``results.csv`` against what a correct run must show.

    ``kept`` is the post-warmup message count every row must report: a cell
    that stopped early (the engine's divergence cutoff) reports fewer.
    """
    found: dict[str, dict[str, str]] = {}
    for row in _rows(text):
        found[f"{row['policy']}@{row['load']}"] = row
    failures: dict[str, list[str]] = {}
    for policy in policies:
        for load in loads:
            label = f"{policy}@{load:g}"
            row = found.pop(label, None)
            if row is None:
                failures[label] = ["row missing"]
                continue
            reasons = _row_reasons(row, kept)
            if reasons:
                failures[label] = reasons
    for label in found:
        failures[label] = ["unexpected row"]
    return failures


def _row_reasons(row: dict[str, str], kept: int) -> list[str]:
    reasons = []
    if row["stability"] == "diverged":
        reasons.append("verdict diverged")
    if int(row["messages"]) != kept:
        reasons.append(f"kept {row['messages']} messages, expected {kept}")
    ratio = _num(row["delay_over_bound"])
    if not ratio >= 1.0:
        reasons.append(f"delay_over_bound {row['delay_over_bound']} < 1")
    rate = _num(row["arrival_rate"])
    delay, delay_ci = _num(row["mean_delay"]), _num(row["delay_ci"])
    occupancy, occupancy_ci = (_num(row["mean_occupancy"]),
                               _num(row["occupancy_ci"]))
    residual = abs(occupancy - rate * delay)
    if not residual <= occupancy_ci + rate * delay_ci:
        reasons.append(f"Little's-law residual {residual:.4g} outside CI "
                       f"{occupancy_ci + rate * delay_ci:.4g}")
    column = FORMULA_COLUMN.get(row["policy"])
    if column is not None:
        expected = _num(row[column])
        # twice the row's 95% half-width widens the band: with two
        # 20k-message seeds the pooled mean alone wanders by up to 5% at
        # high load, so a bare 5% band fails correct runs on some seeds
        slack = FORMULA_TOLERANCE * expected + 2.0 * delay_ci
        if not abs(delay - expected) <= slack:
            reasons.append(f"mean_delay {delay:.6g} off {column} "
                           f"{expected:.6g} by more than {slack:.4g}")
    return reasons


def bounds_failures(text: str, reference: str,
                    reception_time: float) -> dict[str, list[str]]:
    """Check a ``bounds.csv`` against a reference table: same header, same
    rows, every value within one unit in the 6th significant digit, and the
    single-collector bound above its queueing floor."""
    rows, ref_rows = _rows(text), _rows(reference)
    header = text.split("\n", 1)[0]
    if header != reference.split("\n", 1)[0]:
        return {"header": [f"header differs: {header!r}"]}
    failures: dict[str, list[str]] = {}
    for i, ref in enumerate(ref_rows):
        label = f"snr {ref['snr_db']} dB @ load {ref['load']}"
        if i >= len(rows):
            failures[label] = ["row missing"]
            continue
        reasons = [f"{key} {rows[i][key]!r}, reference {value!r}"
                   for key, value in ref.items()
                   if not _same_value(rows[i][key], value)]
        single_lb, pk_wait = _num(rows[i]["single_lb"]), _num(
            rows[i]["pk_wait"])
        if not single_lb >= pk_wait + reception_time - last_digit(single_lb):
            reasons.append(f"single_lb {single_lb} < pk_wait + reception "
                           f"time {pk_wait + reception_time}")
        if reasons:
            failures[label] = reasons
    for row in rows[len(ref_rows):]:
        failures[f"snr {row['snr_db']} dB @ load {row['load']}"] = [
            "unexpected row"]
    return failures


def _same_value(value: str, reference: str) -> bool:
    if value == reference:
        return True
    try:
        got, want = float(value), float(reference)
    except ValueError:
        return False
    return abs(got - want) <= last_digit(want)
