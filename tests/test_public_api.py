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
    "repro.obs.timeline",
    "repro.obs.compare",
    "repro.chem.elements",
    "repro.chem.molecule",
    "repro.chem.graphene",
    "repro.chem.basis.shell",
    "repro.chem.basis.basisset",
    "repro.chem.basis.data",
    "repro.integrals.boys",
    "repro.integrals.hermite",
    "repro.integrals.eri",
    "repro.integrals.schwarz",
    "repro.integrals.onee",
    "repro.scf.fock_dense",
    "repro.scf.guess",
    "repro.scf.diis",
    "repro.scf.convergence",
    "repro.scf.rhf",
    "repro.scf.uhf",
    "repro.resilience.errors",
    "repro.resilience.faults",
    "repro.resilience.checkpoint",
    "repro.parallel.comm",
    "repro.parallel.dlb",
    "repro.parallel.threads",
    "repro.parallel.shared_array",
    "repro.parallel.reduction",
    "repro.core.indexing",
    "repro.core.quartets",
    "repro.core.screening",
    "repro.core.buffers",
    "repro.core.fock_base",
    "repro.core.fock_mpi",
    "repro.core.fock_private",
    "repro.core.fock_shared",
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


def test_every_module_has_a_caller():
    """Every ``src/repro`` module, and every public top-level function and
    class in one, is reached from another ``src/repro`` module or from a
    script under ``benchmarks/``: what only tests and examples call has
    no place on the import path.  A package ``__init__`` is no caller,
    but importing a name it re-exports reaches the module the name comes
    from.  Imports inside functions count.  A function or class counts
    as reached where any caller names it (a bare name, an attribute or
    an imported name), the module it is defined in included, or where a
    package ``__all__`` lists it."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    src = root / "src"

    def dotted(path):
        parts = path.relative_to(src).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    trees = {
        dotted(path): (path.name == "__init__.py", ast.parse(path.read_text()))
        for path in (src / "repro").rglob("*.py")
    }
    exports = {  # (package, name) -> (module, name) of its re-exports
        (module, alias.asname or alias.name): (node.module, alias.name)
        for module, (is_package, tree) in trees.items() if is_package
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }
    listed = {  # names a package ``__all__`` lists
        elt.value
        for is_package, tree in trees.values() if is_package
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }

    def reached(module, name):
        """The modules ``from module import name`` loads on purpose."""
        if f"{module}.{name}" in trees:
            return {f"{module}.{name}"}
        if (module, name) not in exports:
            return set()
        origin, attr = exports[module, name]
        return {origin} | reached(origin, attr)

    callers = [tree for is_package, tree in trees.values() if not is_package]
    callers += [
        ast.parse(path.read_text())
        for path in (root / "benchmarks").rglob("*.py")
    ]
    called, named = set(), set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                called.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                called.add(node.module)
                for alias in node.names:
                    called |= reached(node.module, alias.name)
                    named.add(alias.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    orphans = sorted(
        module for module, (is_package, _) in trees.items()
        if not is_package and module not in called | {"repro.__main__"}
    )
    assert not orphans, f"no caller outside tests/ and examples/: {orphans}"
    orphans = sorted(
        f"{module}.{node.name}"
        for module, (is_package, tree) in trees.items() if not is_package
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named | listed
    )
    assert not orphans, f"no caller outside tests/ and examples/: {orphans}"


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
    assert src.count("e_coefficients_1d(") == 2  # definition, eri
    for path in Path(repro.__file__).parent.rglob("*.py"):
        assert "scipy" not in path.read_text(), path


def test_children_talk_to_their_parent_over_pipes_not_queues():
    """One parent<->child idiom in ``src/``: a one-way ``Pipe`` per child
    per direction, waited on beside the child's sentinel.  A
    ``multiprocessing.Queue`` needs a feeder thread in every writer and
    one lock all writers share, which a writer that dies can leave held."""
    from pathlib import Path

    import repro

    for path in Path(repro.__file__).parent.rglob("*.py"):
        assert ".Queue(" not in path.read_text(), path
