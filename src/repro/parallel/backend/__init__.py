"""Execution backends: simulated cooperative ranks vs. real OS processes."""

from repro.parallel.backend.base import (
    BACKEND_NAMES,
    ExecutionBackend,
    make_backend,
)
from repro.parallel.backend.counter import SharedTaskCounter
from repro.parallel.backend.sim import SimBackend

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SharedTaskCounter",
    "SimBackend",
    "make_backend",
]
