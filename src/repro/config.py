"""The run configuration: one spelling of the SCF option set.

The paper's evaluation is one experiment re-run under different
settings — (algorithm 1/2/3) x (ranks x threads) x (DLB) on the same
input.  Every surface that can launch that experiment (``repro scf``,
``repro profile``, ``repro submit``, manifest entries, the journal
replay) describes it with the same :class:`SCFConfig`, checks it with
the same :meth:`SCFConfig.validate`, and hands it to
:func:`repro.core.scf_driver.build_scf`.

Standard library only: the service's wire layer and the argument
parser import the names from here without paying for numpy.
"""

from __future__ import annotations

import argparse
from dataclasses import Field, dataclass
from typing import Any, Callable

ALGORITHMS = ("mpi-only", "private-fock", "shared-fock")
BACKENDS = ("sim", "process")
SCHEDULES = ("dlb", "static")
METHODS = ("rhf", "uhf")


class ConfigError(ValueError):
    """A run cannot start as configured: bad option values, or input
    (geometry, basis, electron count) the options do not fit."""


def _range_error(value: float, lo: float, strict: bool) -> str | None:
    """Why ``value`` is outside ``>= lo`` (``> lo`` if strict), or None."""
    if value < lo or (strict and value == lo):
        return f"must be {'>' if strict else '>='} {lo}, got {value}"
    return None


def bounded(kind: type, lo: float, strict: bool = False
            ) -> Callable[[str], Any]:
    """argparse ``type=``: an int/float ``>= lo`` (``> lo`` if strict)."""

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            word = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(
                f"not {word}: {text!r}") from None
        problem = _range_error(value, lo, strict)
        if problem:
            raise argparse.ArgumentTypeError(problem)
        return value

    return parse


#: Numeric ranges, field -> (kind, lower bound, strict).  The flag table
#: below builds its argparse types from these and ``validate`` checks
#: the same rows, so a bound is written once.
_BOUNDS: dict[str, tuple[type, float, bool]] = {
    "multiplicity": (int, 1, False),
    "nranks": (int, 1, False),
    "nthreads": (int, 1, False),
    "eri_cache_mb": (float, 0, True),
    "rebuild_every": (int, 1, False),
    "max_iterations": (int, 1, False),
}
#: Fields where ``None`` is a value (no cache; the criteria's own cap).
_NULLABLE = ("eri_cache_mb", "max_iterations")
_CHOICES = {
    "method": METHODS, "algorithm": ALGORITHMS,
    "backend": BACKENDS, "schedule": SCHEDULES,
}


@dataclass(frozen=True, kw_only=True)
class SCFConfig:
    """Everything that selects *which* SCF runs, and nothing about where
    its input comes from or where its output goes.

    ``algorithm=None`` means the method's default: ``shared-fock`` for
    RHF, ``private-fock`` for UHF (the only unrestricted builder).
    ``eri_cache_mb=None`` disables the quartet cache (fully direct SCF);
    ``max_iterations=None`` keeps the convergence criteria's own cap.
    """

    basis: str = "sto-3g"
    charge: int = 0
    method: str = "rhf"
    multiplicity: int = 1
    algorithm: str | None = None
    nranks: int = 1
    nthreads: int = 1
    backend: str = "sim"
    schedule: str = "dlb"
    eri_cache_mb: float | None = 64.0
    incremental: bool = False
    rebuild_every: int = 10
    max_iterations: int | None = None
    fault_plan: str | None = None
    scf_recovery: bool = False

    def __post_init__(self) -> None:
        if self.algorithm is None:
            object.__setattr__(
                self, "algorithm",
                "private-fock" if self.method == "uhf" else "shared-fock",
            )

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any value or combination that
        cannot run.  The only copy of these rules."""
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(
                    f"unknown {name} {getattr(self, name)!r}; "
                    f"choose from {choices}"
                )
        for name, (kind, lo, strict) in _BOUNDS.items():
            value = getattr(self, name)
            if value is None and name in _NULLABLE:
                continue
            numeric = (int, float) if kind is float else int
            if isinstance(value, bool) or not isinstance(value, numeric):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            problem = _range_error(value, lo, strict)
            if problem:
                raise ConfigError(f"{name} {problem}")
        if self.algorithm == "mpi-only" and self.nthreads != 1:
            raise ConfigError(
                f"mpi-only requires nthreads == 1 (--threads 1), "
                f"got {self.nthreads}"
            )
        if self.method == "uhf":
            if self.algorithm != "private-fock":
                raise ConfigError(
                    f"uhf runs on the private-fock algorithm only, "
                    f"got {self.algorithm!r}"
                )
            if self.incremental:
                raise ConfigError(
                    "incremental Fock builds (--incremental) are not "
                    "supported with --uhf"
                )

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "SCFConfig":
        """The config a namespace parsed by :func:`add_run_arguments`
        describes (not yet validated)."""
        values = {
            field: getattr(ns, flag[2:].replace("-", "_"))
            for field, flag, *_ in RUN_FLAGS if field is not None
        }
        values["method"] = "uhf" if ns.uhf else "rhf"  # --uhf is a switch
        if ns.no_eri_cache:
            values["eri_cache_mb"] = None
        return cls(**values)


def _field(name: str) -> Field:
    return SCFConfig.__dataclass_fields__[name]


_SWITCH = {"action": "store_true"}

#: The run flags of ``scf`` / ``profile`` / ``submit``: one ``(field,
#: flag, argparse keywords, help)`` row per :class:`SCFConfig` field,
#: plus ``--no-eri-cache``, which clears one.  Types, choices and
#: defaults come from ``_BOUNDS``, ``_CHOICES`` and the dataclass.
RUN_FLAGS: tuple[tuple[str | None, str, dict[str, Any], str], ...] = (
    ("basis", "--basis", {"metavar": "NAME"}, "basis set name"),
    ("charge", "--charge", {"metavar": "Q", "type": int},
     "total molecular charge"),
    ("method", "--uhf", _SWITCH,
     "unrestricted Hartree-Fock (two spin densities through the "
     "private-fock builder)"),
    ("multiplicity", "--multiplicity", {"metavar": "M"},
     "spin multiplicity 2S+1 of a --uhf run"),
    ("algorithm", "--algorithm", {},
     "Fock-build algorithm (default: shared-fock; private-fock with "
     "--uhf)"),
    ("nranks", "--ranks", {"metavar": "N"}, "MPI ranks"),
    ("nthreads", "--threads", {"metavar": "N"},
     "OpenMP threads per rank; mpi-only takes exactly 1"),
    ("backend", "--backend", {},
     "execution backend: 'sim' runs ranks on the deterministic "
     "in-process cooperative runtime; 'process' runs the same rank "
     "programs on real OS worker processes with shared-memory matrices"),
    ("schedule", "--schedule", {},
     "task-distribution strategy: 'dlb' is the paper's dynamic shared "
     "counter; 'static' pre-partitions with Schwarz work estimates "
     "(zero counter traffic)"),
    ("eri_cache_mb", "--eri-cache-mb", {"metavar": "MB"},
     "byte budget of the cross-cycle quartet ERI cache in MB (LRU "
     "eviction once the budget is exceeded)"),
    (None, "--no-eri-cache", _SWITCH,
     "disable the quartet cache (fully direct SCF: every cycle "
     "re-evaluates every surviving quartet)"),
    ("incremental", "--incremental", _SWITCH,
     "delta-density Fock builds after the first cycle, with "
     "density-aware screening (RHF only)"),
    ("rebuild_every", "--rebuild-every", {"metavar": "N"},
     "full-rebuild period of --incremental"),
    ("max_iterations", "--max-iterations", {"metavar": "N"},
     "SCF iteration cap; hitting it is a convergence failure (default: "
     "the convergence criteria's own)"),
    ("fault_plan", "--fault-plan", {"metavar": "SPEC"},
     "deterministic fault-injection spec, ';'-separated events: "
     '"kill:rank=1:cycle=2:after=5;delay:rank=3:cycle=1:factor=4;'
     'corrupt:rank=0:cycle=2:payload=inf"'),
    ("scf_recovery", "--scf-recovery", _SWITCH,
     "enable the convergence guard (staged density damping -> level "
     "shifting -> DIIS reset on divergence/oscillation)"),
)


def add_run_arguments(parser: argparse.ArgumentParser,
                      **defaults: Any) -> None:
    """Give ``parser`` the run flags; ``defaults`` (by field name)
    replace the :class:`SCFConfig` defaults for this verb."""
    for field, flag, extra, help in RUN_FLAGS:
        kwargs = {"help": help, **extra}
        if extra is not _SWITCH:
            kwargs["default"] = defaults.get(field, _field(field).default)
            if kwargs["default"] is not None:
                kwargs["help"] += f" (default: {kwargs['default']})"
            if field in _BOUNDS:
                kwargs["type"] = bounded(*_BOUNDS[field])
            if field in _CHOICES:
                kwargs["choices"] = _CHOICES[field]
        parser.add_argument(flag, **kwargs)
