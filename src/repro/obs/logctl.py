"""Structured logging control for the CLI.

The repro CLI prints machine-parseable results (energies, JSON, NDJSON
paths) on **stdout**; everything diagnostic — registry writes, telemetry
socket lifecycle, backend warnings — goes through :mod:`logging` to
**stderr**.  This module owns that split:

* ``--log-level debug|info|warning|error`` sets the threshold for the
  ``repro`` logger tree (handlers attach to stderr only, so piping
  stdout stays clean);
* ``--quiet`` raises the threshold to ``error`` *and* is exposed via
  :func:`quiet_enabled` so subcommands can gate their informational
  stdout prints (tables, progress notes) while keeping the primary
  result lines.

Every record additionally carries correlation fields — ``run_id``,
``job_id``, ``trace_id`` — injected from context variables by a
:class:`logging.Filter`, so a stderr line can be joined against the
run registry and the distributed trace of the job that emitted it.
Set them with :func:`set_log_context` (the service worker does this
per dispatched job; the CLI per registered run); unset fields render
as nothing, keeping single-process logs unchanged.
"""

from __future__ import annotations

import logging
import sys
from contextvars import ContextVar

LEVELS = ("debug", "info", "warning", "error")

_quiet = False

#: The correlation fields, one context variable each.
_CONTEXT: dict[str, ContextVar[str | None]] = {
    key: ContextVar(f"repro_log_{key}", default=None)
    for key in ("run_id", "job_id", "trace_id")
}


def set_log_context(**fields: str | None) -> None:
    """Set correlation fields (``run_id``, ``job_id``, ``trace_id``) for
    subsequent log records.

    Only the keywords passed are touched; pass ``None`` to clear one.
    """
    for key, value in fields.items():
        if key not in _CONTEXT:
            raise TypeError(f"unknown log context field {key!r}")
        _CONTEXT[key].set(value)


def clear_log_context() -> None:
    """Drop all correlation fields."""
    set_log_context(**dict.fromkeys(_CONTEXT))


def log_context() -> dict[str, str | None]:
    """The current correlation fields (``None`` where unset)."""
    return {key: var.get() for key, var in _CONTEXT.items()}


class CorrelationFilter(logging.Filter):
    """Stamp ``run_id``/``job_id``/``trace_id`` onto every record.

    Also precomputes ``record.corr`` — a ready-to-format suffix like
    ``" [run=… job=… trace=…]"``, empty when no field is set — so the
    formatter string stays a plain ``%``-style template.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        fields = log_context()
        record.__dict__.update(fields)
        parts = [f"{key.removesuffix('_id')}={val}"
                 for key, val in fields.items() if val]
        record.corr = f" [{' '.join(parts)}]" if parts else ""
        return True


def setup_logging(level: str = "warning", *, quiet: bool = False) -> None:
    """Configure the ``repro`` logger tree for one CLI invocation.

    Idempotent: re-running replaces the handler rather than stacking
    duplicates (matters for in-process CLI tests that call ``main``
    repeatedly).
    """
    global _quiet
    _quiet = quiet
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {LEVELS}")
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.addFilter(CorrelationFilter())
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s%(corr)s: %(message)s")
    )
    root.addHandler(handler)
    root.setLevel(
        logging.ERROR if quiet else getattr(logging, level.upper())
    )
    root.propagate = False


def quiet_enabled() -> bool:
    """Whether ``--quiet`` was requested (gates informational stdout)."""
    return _quiet
