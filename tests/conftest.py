"""Shared fixtures: the acceptance-criterion reporter and the forked count."""

from contextlib import contextmanager

import pytest

from fqidtest import bound, idtest

_CRITERIA = []


@pytest.fixture
def criterion():
    """Record and print one pass/fail line per acceptance criterion."""

    @contextmanager
    def run(number: int, label: str):
        try:
            yield
        except BaseException:
            _CRITERIA.append((number, label, "FAIL"))
            print(f"CRITERION {number}: FAIL — {label}")
            raise
        _CRITERIA.append((number, label, "PASS"))
        print(f"CRITERION {number}: PASS — {label}")

    return run


@pytest.fixture
def pooled_counts(monkeypatch):
    """Exact counts and exhaustive scans with workers > 1 fork their pool
    whatever their size, as those of FORK_POINTS points walked (candidates
    times points, for a scan) and more do.  bound.FORK_POINTS is the one
    binding both read.  A lanes count never forks, so counts over GF(2^k)
    and GF(3) are kept off lanes (idtest.LANES_MIN_POINTS out of reach)
    and fork on the point and slice walks."""
    monkeypatch.setattr(bound, "FORK_POINTS", 0)
    monkeypatch.setattr(idtest, "LANES_MIN_POINTS", 1 << 64)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, status in sorted(_CRITERIA):
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} — {label}")
