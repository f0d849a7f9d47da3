from __future__ import annotations

from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def assert_same_text(actual: str, expected: str) -> None:
    """Fail at once, naming the first differing offset with 40 characters of context on each side, when
    ``actual != expected``: pytest's diff of a failed ``==`` on two multi-megabyte texts can run for minutes."""
    if len(actual) == len(expected) and actual == expected:
        return
    lo, hi = 0, min(len(actual), len(expected))  # the texts agree on their first lo characters and not beyond hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if actual.startswith(expected[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    start, end = max(lo - 40, 0), lo + 40
    pytest.fail(
        f"texts of {len(actual)} and {len(expected)} characters differ at offset {lo}:\n"
        f"  actual   {actual[start:end]!r}\n  expected {expected[start:end]!r}",
        pytrace=False,
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
