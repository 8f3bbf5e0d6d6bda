import os

import pytest

# numpy's OpenBLAS starts threads when it loads, and the in-process CLI tests
# fork this process for their scans and tables: capped here, before any test
# module imports numpy, the process stays single-threaded when it forks
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the large-discriminant table rows")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
