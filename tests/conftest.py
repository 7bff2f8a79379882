import pytest
from hypothesis import HealthCheck, settings

import matzeta

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


# Acceptance-criterion results, printed one line each at the end of the run.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, description: str, status: str) -> None:
    ACCEPTANCE_RESULTS.append((number, description, status))


@pytest.fixture(scope="session")
def catalog7():
    return matzeta.build_catalog(7)


@pytest.fixture(scope="session")
def catalog6():
    return matzeta.build_catalog(6)


@pytest.fixture(scope="session")
def catalog5():
    return matzeta.build_catalog(5)


@pytest.fixture(scope="session")
def catalog4():
    return matzeta.build_catalog(4)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:>2} {status}: {description}")
