"""Pin BLAS to one thread before numpy loads.

Every entry script of the benchmark calls `pin()` before anything imports
numpy. Children inherit the environment, so the pin holds in every process
the benchmark starts. `PRISM_THREADS` is removed so the program keeps its
default pool of `os.cpu_count()` workers.
"""

from __future__ import annotations

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_state = {"numpy_loaded_first": None, "prism_threads_removed": None}


def pin() -> None:
    _state["numpy_loaded_first"] = "numpy" in sys.modules
    for var in BLAS_VARS:
        os.environ[var] = "1"
    _state["prism_threads_removed"] = os.environ.pop("PRISM_THREADS", None)


def pin_problem() -> str | None:
    """Why timings must not be reported, or None when the pin is in effect."""
    if _state["numpy_loaded_first"] is None:
        return "blaspin.pin() was never called"
    if _state["numpy_loaded_first"]:
        return "numpy was imported before the BLAS pin was set"
    for var in BLAS_VARS:
        if os.environ.get(var) != "1":
            return f"{var} is {os.environ.get(var)!r}, not '1'"
    if "PRISM_THREADS" in os.environ:
        return "PRISM_THREADS is set; the benchmark measures the default pool"
    return None


def removed_prism_threads() -> str | None:
    return _state["prism_threads_removed"]
