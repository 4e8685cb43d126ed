"""Regenerate ``fixtures/references.json`` (energies + iteration counts).

    python3 benchmarks/e2e/make_references.py

Direct workloads are run once through the real CLI; the six cold jobs
of the service batch are solved in-process with their own algorithm
(H2/6-31G sits on the convergence threshold, where the algorithms can
differ by a cycle).  Only needed when a fixture geometry or the SCF's converged answer
changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.pin_threads()
sys.path.insert(0, str(harness.SRC))

import workloads  # noqa: E402


def direct_references() -> dict:
    sandbox = harness.Sandbox("references")
    out = {}
    try:
        for w in workloads.WORKLOADS.values():
            if w.kind != "direct":
                continue
            child = sandbox.run(workloads.scf_argv(w), "scf")
            match = workloads.ENERGY_RE.search(child.stdout)
            if child.returncode != 0 or match is None:
                raise SystemExit(f"{w.name}: {child.stderr}")
            out[w.name] = {"energy": float(match.group(1)),
                           "iterations": int(match.group(3))}
    finally:
        sandbox.close()
    return out


def service_references() -> dict:
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.core.scf_driver import ParallelSCF

    out = {}
    for system, scale, algorithm in workloads.COLD_JOBS:
        mol = Molecule.from_xyz(workloads.scaled_xyz(system, scale))
        basis = BasisSet(mol, workloads.SYSTEMS[system][0])
        run = ParallelSCF(basis, algorithm).run()
        if not run.converged:
            raise SystemExit(f"{system} x{scale}: not converged")
        out[workloads.job_key(system, scale, algorithm)] = {
            "energy": round(run.energy, 10),
            "iterations": len(run.scf.iterations),
        }
    return out


if __name__ == "__main__":
    refs = {"direct": direct_references(), "service": service_references()}
    harness.write_json(workloads.FIXTURES / "references.json", refs)
    print(json.dumps(refs["direct"], indent=2))
