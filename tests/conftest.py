"""Session header: the numpy and BLAS build and the BLAS thread count, which
trained outputs depend on; the `slow` marker of the minutes-long tests."""

import os

import numpy as np
import pytest

# by node id, so that the acceptance file itself stays as it is
SLOW = {"tests/test_acceptance.py::test_a4_synthetic_overfit"}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"cpu_count={os.cpu_count()}")


def pytest_report_header(config):
    return environment()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q hides the header
        terminalreporter.write_line(environment())


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)
