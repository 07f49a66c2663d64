import re
from fractions import Fraction

import pytest

from tropint import polyhedra

_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.fixture(autouse=True)
def integral_vertex_coordinates_are_ints(monkeypatch):
    """Every cell a test builds stores an integral vertex coordinate as an
    int and any other as a Fraction.  Cells are checked as they are
    interned, so cells the bounded pool evicts are checked too."""
    bad = []
    real = polyhedra._intern

    def intern(cell):
        for x in (x for v in cell.vertices for x in v):
            if type(x) is not (int if x == int(x) else Fraction):
                bad.append(cell)
        return real(cell)

    monkeypatch.setattr(polyhedra, "_intern", intern)
    yield
    assert not bad, bad


def pytest_configure(config):
    config._criteria = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    match = _CRITERION.match(item.name)
    if match is None:
        return
    number = int(match.group(1))
    doc = (item.function.__doc__ or "").strip()
    note = doc.splitlines()[0] if doc else ""
    if report.when == "call":
        item.config._criteria[number] = (report.passed, note)
    elif report.failed:
        # setup or teardown error counts as a failure of the criterion
        item.config._criteria[number] = (False, note)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    criteria = getattr(config, "_criteria", None)
    if not criteria:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(criteria):
        passed, note = criteria[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line("criterion %2d: %s  %s" % (number, verdict, note))
