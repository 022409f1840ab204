"""Session fixtures and the acceptance-criteria terminal summary."""
from __future__ import annotations

import pytest
from hypothesis import settings

import matrixlib

# a fixed example search: the tier-1 outcome must not depend on the draw
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def sweep_matrix():
    """All shared simulation cells, built once per session."""
    return matrixlib.build_matrix()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not matrixlib.CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(matrixlib.CRITERION_LINES):
        passed, detail = matrixlib.CRITERION_LINES[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} - {detail}")
