"""Session header: the numpy and BLAS build and the BLAS thread count, which
trained outputs depend on."""

import os

import numpy as np


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
