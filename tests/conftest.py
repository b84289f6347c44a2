"""Shared fixtures, hypothesis profiles, and acceptance-line reporting."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from goodmat.known_solutions import KNOWN_3, KNOWN_27, KNOWN_57

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def known3():
    return KNOWN_3


@pytest.fixture(scope="session")
def known27():
    return KNOWN_27


@pytest.fixture(scope="session")
def known57():
    return KNOWN_57


# ── acceptance criterion reporting ───────────────────────────────────────────
# Tests marked @pytest.mark.criterion(k, "description") get one [PASS]/[FAIL]
# line each in the terminal summary, so the acceptance verdict is readable
# without -s.

_CRITERION_RESULTS: dict[str, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, text): acceptance criterion metadata"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, text = marker.args
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        if _CRITERION_RESULTS.get(str(num), ("",))[0] != "FAIL":  # one failed case fails it
            _CRITERION_RESULTS[str(num)] = (status, text)
    elif report.when == "setup" and (report.failed or report.skipped):
        status = "SKIP" if report.skipped else "FAIL"
        _CRITERION_RESULTS.setdefault(str(num), (status, text))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_RESULTS):  # "1" < "2" < … < "6a" … < "7"
        status, text = _CRITERION_RESULTS[num]
        terminalreporter.write_line(f"[{status}] criterion {num}: {text}")
