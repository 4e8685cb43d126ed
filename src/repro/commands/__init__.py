"""The ``repro`` verbs, one module per verb group.

======================  ==============================================
:mod:`.run`             ``scf``, ``profile``
:mod:`.service`         ``serve``, ``submit``, ``status``, ``result``,
                        ``cancel``, ``batch``, ``slo``
:mod:`.obs`             ``monitor``, ``runs``, ``explain``, ``compare``
:mod:`.paper`           ``dataset``, ``simulate``, ``reproduce``
======================  ==============================================

Each module has a ``register(sub)`` that adds its verbs' parsers and a
``cmd_<verb>(args) -> exit code`` per verb; :mod:`repro.cli` assembles
them.  This file holds the argument helpers more than one group uses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.config import ConfigError


def add_logging_args(p: argparse.ArgumentParser, *, top: bool = False) -> None:
    """``--log-level`` / ``--quiet``, accepted before or after the command.

    The root parser carries the defaults; subparsers use
    ``argparse.SUPPRESS`` so an unset subcommand-level flag leaves the
    root value in the namespace instead of clobbering it.
    """
    from repro.obs.logctl import LEVELS

    p.add_argument(
        "--log-level", choices=LEVELS,
        **({"default": "warning"} if top else {"default": argparse.SUPPRESS}),
        help="diagnostic verbosity on stderr (default: warning); stdout "
             "output is unaffected",
    )
    p.add_argument(
        "--quiet", "-q", action="store_true",
        **({} if top else {"default": argparse.SUPPRESS}),
        help="suppress informational output: only primary results on "
             "stdout, only errors on stderr",
    )


def add_verb(sub, name: str, handler: Callable[[argparse.Namespace], int],
             **kwargs) -> argparse.ArgumentParser:
    """A subcommand parser that dispatches to ``handler`` and takes
    ``--log-level`` / ``--quiet`` after its name too."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    add_logging_args(parser)
    return parser


def add_runs_dir(parser: argparse.ArgumentParser, purpose: str = "") -> None:
    parser.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help=f"run registry root{purpose} "
             "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )


def add_service_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--service-dir", type=Path,
        default=Path(".repro") / "service", metavar="DIR",
        help="service state directory: socket, journal, job "
             "checkpoints (default: .repro/service)",
    )


def read_input(path: Path) -> str:
    """The text of a file named on the command line (a geometry, a span
    or event dump); unreadable is one ``error:`` line, not a traceback."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}"
        ) from None


def energy_lines(energy: float, converged: bool, iterations: int,
                 s_squared: float | None = None, note: str = "") -> str:
    """The result line every run surface prints (and the benchmark
    ledger parses); a UHF result — one with <S^2> — adds a second."""
    method = "RHF" if s_squared is None else "UHF"
    lines = (f"{method} energy   : {energy:.10f} Eh "
             f"(converged={converged}, {iterations} iterations{note})")
    if s_squared is not None:
        lines += f"\n<S^2>        : {s_squared:.6f}"
    return lines


def fail(message: str, code: int = 2) -> int:
    """Print ``error: <message>`` on stderr; the exit code to return."""
    print(f"error: {message}", file=sys.stderr)
    return code
