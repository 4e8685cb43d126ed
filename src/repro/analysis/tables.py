"""Reproduction of the paper's tables (2, 3 and artifact Table 4)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.graphene import PAPER_DATASETS, GrapheneSpec
from repro.config import ALGORITHMS
from repro.core.memory_model import (
    AlgorithmKind,
    MemoryModel,
    NodeConfig,
    TABLE2_HYBRID_CONFIG,
    TABLE2_MPI_CONFIG,
)
from repro.perfsim.cost_model import CostModel, calibrated_cost_model
from repro.perfsim.scaling import node_scaling
from repro.perfsim.workload import Workload

#: Paper Table 2 published footprints (GB): dataset -> (MPI, Pr.F, Sh.F).
PAPER_TABLE2: dict[str, tuple[float, float, float]] = {
    "0.5nm": (7.0, 0.13, 0.03),
    "1.0nm": (48.0, 1.0, 0.2),
    "1.5nm": (160.0, 3.0, 0.8),
    "2.0nm": (417.0, 8.0, 2.0),
    "5.0nm": (9869.0, 257.0, 52.0),
}

#: Paper Table 3 published values: nodes -> (MPI, Pr.F, Sh.F) seconds.
PAPER_TABLE3_TIMES: dict[int, tuple[float, float, float]] = {
    4: (2661.0, 1128.0, 1318.0),
    16: (685.0, 288.0, 332.0),
    64: (195.0, 78.0, 85.0),
    128: (118.0, 49.0, 43.0),
    256: (85.0, 44.0, 23.0),
    512: (82.0, 44.0, 13.0),
}

#: Paper Table 3 parallel efficiency (%): nodes -> (MPI, Pr.F, Sh.F).
PAPER_TABLE3_EFF: dict[int, tuple[float, float, float]] = {
    4: (100.0, 100.0, 100.0),
    16: (97.0, 98.0, 99.0),
    64: (85.0, 90.0, 97.0),
    128: (70.0, 72.0, 96.0),
    256: (49.0, 40.0, 90.0),
    512: (25.0, 20.0, 79.0),
}


@dataclass
class Table2Row:
    """One dataset's size characteristics and per-node footprints."""

    dataset: str
    natoms: int
    nshells: int
    nbf: int
    mpi_gb: float
    private_gb: float
    shared_gb: float
    paper_mpi_gb: float
    paper_private_gb: float
    paper_shared_gb: float

    @property
    def reduction_private(self) -> float:
        """Footprint reduction of the private-Fock code vs stock MPI."""
        return self.mpi_gb / self.private_gb if self.private_gb else 0.0

    @property
    def reduction_shared(self) -> float:
        """Footprint reduction of the shared-Fock code vs stock MPI."""
        return self.mpi_gb / self.shared_gb if self.shared_gb else 0.0


def table2_memory_footprints() -> list[Table2Row]:
    """Reproduce Table 2: per-node memory of the three codes.

    Geometry as in the paper: 256 single-thread ranks per node for the
    stock code (with its legacy-DDI data-server duplication), 4 ranks x
    64 threads for the hybrids.
    """
    rows: list[Table2Row] = []
    for label, spec in PAPER_DATASETS.items():
        mm_legacy = MemoryModel(spec.nbf, spec.nshells, legacy_ddi=True)
        mm = MemoryModel(spec.nbf, spec.nshells)
        paper = PAPER_TABLE2[label]
        rows.append(
            Table2Row(
                dataset=label,
                natoms=spec.natoms,
                nshells=spec.nshells,
                nbf=spec.nbf,
                mpi_gb=mm_legacy.per_node_gb(
                    AlgorithmKind.MPI_ONLY, TABLE2_MPI_CONFIG
                ),
                private_gb=mm.per_node_gb(
                    AlgorithmKind.PRIVATE_FOCK, TABLE2_HYBRID_CONFIG
                ),
                shared_gb=mm.per_node_gb(
                    AlgorithmKind.SHARED_FOCK, TABLE2_HYBRID_CONFIG
                ),
                paper_mpi_gb=paper[0],
                paper_private_gb=paper[1],
                paper_shared_gb=paper[2],
            )
        )
    return rows


@dataclass
class Table3Row:
    """One node count's times and efficiencies, measured vs paper."""

    nodes: int
    times: dict[str, float]
    efficiencies: dict[str, float]
    paper_times: tuple[float, float, float]
    paper_eff: tuple[float, float, float]


def table3_multinode(
    cost: CostModel | None = None,
    *,
    node_counts: tuple[int, ...] = (4, 16, 64, 128, 256, 512),
) -> list[Table3Row]:
    """Reproduce Table 3: 2.0 nm multi-node times and efficiencies."""
    cost = cost or calibrated_cost_model()
    wl = Workload.for_dataset("2.0nm")
    curves = {
        alg: node_scaling(wl, alg, list(node_counts), cost)
        for alg in ALGORITHMS
    }
    rows: list[Table3Row] = []
    for idx, nodes in enumerate(node_counts):
        rows.append(
            Table3Row(
                nodes=nodes,
                times={a: curves[a][idx].seconds for a in curves},
                efficiencies={
                    a: 100.0 * curves[a][idx].efficiency for a in curves
                },
                paper_times=PAPER_TABLE3_TIMES.get(nodes, (0.0, 0.0, 0.0)),
                paper_eff=PAPER_TABLE3_EFF.get(nodes, (0.0, 0.0, 0.0)),
            )
        )
    return rows


@dataclass
class Table4Row:
    """Dataset size characteristics (artifact appendix Table 4)."""

    dataset: str
    natoms: int
    nshells: int
    nbf: int
    paper_natoms: int
    paper_nshells: int
    paper_nbf: int


def table4_system_sizes() -> list[Table4Row]:
    """Reproduce the artifact's Table 4 from the geometry generator."""
    from repro.chem.basis import BasisSet
    from repro.chem.graphene import paper_dataset

    paper = {
        "0.5nm": (44, 176, 660),
        "1.0nm": (120, 480, 1800),
        "1.5nm": (220, 880, 3300),
        "2.0nm": (356, 1424, 5340),
        "5.0nm": (2016, 8064, 30240),
    }
    rows: list[Table4Row] = []
    for label in PAPER_DATASETS:
        mol = paper_dataset(label)
        basis = BasisSet(mol, "6-31g(d)")
        p = paper[label]
        rows.append(
            Table4Row(
                dataset=label,
                natoms=mol.natoms,
                nshells=basis.nshells,
                nbf=basis.nbf,
                paper_natoms=p[0],
                paper_nshells=p[1],
                paper_nbf=p[2],
            )
        )
    return rows


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Simple monospace table renderer."""
    widths = [
        max(len(h), *(len(r[c]) for r in rows)) if rows else len(h)
        for c, h in enumerate(headers)
    ]
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
