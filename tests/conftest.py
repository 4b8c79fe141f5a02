from pathlib import Path

import pytest

from zgb import build_table, compute_constants

DATA_DIR = Path(__file__).parent / "data"


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs for more than a few seconds; "
                                       "skipped unless --run-slow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: give --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def reference_path() -> Path:
    return DATA_DIR / "zeros_to_1000_ref.txt"


@pytest.fixture(scope="session")
def constants():
    return compute_constants()


@pytest.fixture(scope="session")
def table100():
    return build_table(100.0)


@pytest.fixture(scope="session")
def table1000():
    return build_table(1000.0)
