"""Public-API hygiene: imports, __all__ integrity, docstrings."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro.analysis", "repro.chem", "repro.chem.basis", "repro.commands",
    "repro.core", "repro.integrals", "repro.machine", "repro.obs",
    "repro.parallel", "repro.parallel.backend", "repro.perfsim",
    "repro.resilience", "repro.scf", "repro.service", "repro.workload",
]

PACKAGES = [
    "repro",
    "repro.chem",
    "repro.chem.basis",
    "repro.integrals",
    "repro.scf",
    "repro.parallel",
    "repro.core",
    "repro.machine",
    "repro.perfsim",
    "repro.analysis",
    "repro.resilience",
]

MODULES = [
    "repro.constants",
    "repro.cli",
    "repro.config",
    "repro.commands",
    "repro.commands.run",
    "repro.commands.service",
    "repro.commands.obs",
    "repro.commands.paper",
    "repro.obs.session",
    "repro.chem.elements",
    "repro.chem.molecule",
    "repro.chem.graphene",
    "repro.chem.basis.shell",
    "repro.chem.basis.basisset",
    "repro.chem.basis.data",
    "repro.chem.basis.parser",
    "repro.integrals.boys",
    "repro.integrals.hermite",
    "repro.integrals.multipole",
    "repro.integrals.eri",
    "repro.integrals.schwarz",
    "repro.integrals.onee",
    "repro.scf.fock_dense",
    "repro.scf.guess",
    "repro.scf.diis",
    "repro.scf.convergence",
    "repro.scf.rhf",
    "repro.scf.uhf",
    "repro.scf.mp2",
    "repro.scf.incremental",
    "repro.scf.properties",
    "repro.scf.eigensolver",
    "repro.resilience.errors",
    "repro.resilience.faults",
    "repro.resilience.checkpoint",
    "repro.resilience.recovery",
    "repro.parallel.comm",
    "repro.parallel.dlb",
    "repro.parallel.threads",
    "repro.parallel.shared_array",
    "repro.parallel.reduction",
    "repro.parallel.ddi",
    "repro.core.indexing",
    "repro.core.quartets",
    "repro.core.screening",
    "repro.core.buffers",
    "repro.core.fock_base",
    "repro.core.fock_mpi",
    "repro.core.fock_private",
    "repro.core.fock_shared",
    "repro.core.fock_distributed",
    "repro.core.fock_uhf",
    "repro.core.scf_driver",
    "repro.core.memory_model",
    "repro.machine.knl",
    "repro.machine.memory_modes",
    "repro.machine.cluster_modes",
    "repro.machine.interconnect",
    "repro.machine.system",
    "repro.perfsim.workload",
    "repro.perfsim.cost_model",
    "repro.perfsim.affinity",
    "repro.perfsim.engine",
    "repro.perfsim.simulate",
    "repro.perfsim.scaling",
    "repro.perfsim.sensitivity",
    "repro.analysis.tables",
    "repro.analysis.figures",
    "repro.analysis.report",
    "repro.analysis.plots",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"


def test_every_subpackage_imports_alone():
    """One fresh interpreter per sub-package: an import cycle that only
    bites when a package is imported *first* (``repro.scf`` did, through
    ``scf`` -> ``core`` -> ``scf.incremental``) shows up here, whatever
    the rest of the suite imported before."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    names = sorted(
        ".".join(("repro",) + path.parent.relative_to(root).parts)
        for path in root.rglob("__init__.py") if path.parent != root
    )
    assert {"repro.scf", "repro.core", "repro.integrals"} <= set(names)
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(root.parent)},
        )
        assert proc.returncode == 0, f"import {name}:\n{proc.stderr}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_members_resolve(name):
    mod = importlib.import_module(name)
    for member in getattr(mod, "__all__", []):
        assert hasattr(mod, member), f"{name}.__all__ lists missing {member}"


def test_public_classes_have_docstrings():
    """Every public class/function reachable from package __all__ is
    documented."""
    undocumented = []
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for member in getattr(mod, "__all__", []):
            obj = getattr(mod, member)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{name}.{member}")
    assert not undocumented, undocumented


def test_one_eri_kernel_and_one_hermite_recursion_in_src():
    """The scalar oracles live in ``tests/oracles.py``; ``src/`` has one
    two-electron kernel, one Hermite-Coulomb recursion and no scipy."""
    from pathlib import Path

    import repro
    import repro.integrals as integrals
    from repro.integrals import eri, hermite

    assert "eri_class_batch" in integrals.__all__
    assert "eri_shell_quartet_scalar" not in integrals.__all__
    assert not hasattr(eri, "eri_shell_quartet_scalar")
    assert not hasattr(hermite, "hermite_coulomb")
    # ... and one pair builder feeding one E recursion: the per-pair
    # one-electron kernels are oracles too.
    assert not hasattr(hermite, "e_coefficients_3d")
    for gone in ("overlap", "kinetic", "nuclear"):
        assert not (Path(integrals.__file__).parent / f"{gone}.py").exists()
    src = "".join(
        path.read_text() for path in Path(integrals.__file__).parent.glob("*.py")
    )
    assert src.count("e_coefficients_1d(") == 3  # definition, eri, multipole
    for path in Path(repro.__file__).parent.rglob("*.py"):
        assert "scipy" not in path.read_text(), path
