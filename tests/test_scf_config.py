"""One run-config: every surface that can launch an SCF launches the same one.

``repro scf``, ``repro profile``, ``repro submit`` and manifest entries
all describe a run with :class:`repro.config.SCFConfig`, check it with
its one ``validate()`` and construct it through
:func:`repro.core.scf_driver.build_scf`.  These tests hold the surfaces
to that: the flags cover every field, the same bad input is refused
with the same words everywhere, and the same config gives the same
bits whichever way it is run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from repro.chem.basis import BasisSet
from repro.chem.molecule import Molecule, water
from repro.cli import build_parser, main
from repro.config import ConfigError, SCFConfig
from repro.core.scf_driver import build_scf
from repro.obs.registry import RunRegistry
from repro.service import JobClient, JobSpec, JobSpecError, ServiceUnavailable
from repro.workload import (
    make_batch_scheduler,
    manifest_fingerprint,
    parse_manifest,
)

RUN_VERBS = ("scf", "profile", "submit")
OH_XYZ = "2\nhydroxyl radical\nO 0.0 0.0 0.0\nH 0.0 0.0 0.97\n"


@pytest.fixture()
def water_xyz(tmp_path):
    path = tmp_path / "water.xyz"
    path.write_text(water().to_xyz())
    return path


# -- (d) the flag table covers the dataclass -----------------------------------

#: One non-default value per field, spelled as a user would type it.
ARGV = {
    "basis": ["--basis", "6-31g"],
    "charge": ["--charge", "-1"],
    "method": ["--uhf"],
    "multiplicity": ["--multiplicity", "2"],
    "algorithm": ["--algorithm", "private-fock"],
    "nranks": ["--ranks", "3"],
    "nthreads": ["--threads", "2"],
    "backend": ["--backend", "process"],
    "schedule": ["--schedule", "static"],
    "eri_cache_mb": ["--eri-cache-mb", "8"],
    "incremental": ["--incremental"],
    "rebuild_every": ["--rebuild-every", "4"],
    "max_iterations": ["--max-iterations", "7"],
    "fault_plan": ["--fault-plan", "kill:rank=1:cycle=2:after=0"],
    "scf_recovery": ["--scf-recovery"],
}
EXPECTED = SCFConfig(
    basis="6-31g", charge=-1, method="uhf", multiplicity=2,
    algorithm="private-fock", nranks=3, nthreads=2, backend="process",
    schedule="static", eri_cache_mb=8.0, incremental=True, rebuild_every=4,
    max_iterations=7, fault_plan="kill:rank=1:cycle=2:after=0",
    scf_recovery=True,
)


def test_every_config_field_has_a_flag():
    """A field added without a flag (or a case here) fails this test."""
    assert set(ARGV) == {f.name for f in fields(SCFConfig)}
    assert all(getattr(EXPECTED, name) != getattr(SCFConfig(), name)
               for name in ARGV)


@pytest.mark.parametrize("verb", RUN_VERBS)
def test_from_args_round_trips(verb):
    argv = [verb, "x.xyz", *(word for words in ARGV.values() for word in words)]
    assert SCFConfig.from_args(build_parser().parse_args(argv)) == EXPECTED


@pytest.mark.parametrize("verb", ("scf", "submit"))
def test_flag_defaults_are_the_dataclass_defaults(verb):
    args = build_parser().parse_args([verb, "x.xyz"])
    assert SCFConfig.from_args(args) == SCFConfig()
    direct = build_parser().parse_args([verb, "x.xyz", "--no-eri-cache"])
    assert SCFConfig.from_args(direct) == SCFConfig(eri_cache_mb=None)


def test_uhf_defaults_to_its_only_algorithm():
    assert SCFConfig(method="uhf").algorithm == "private-fock"
    assert SCFConfig().algorithm == "shared-fock"
    with pytest.raises(ConfigError, match="private-fock algorithm only"):
        SCFConfig(method="uhf", algorithm="shared-fock").validate()


# -- (c) bad input is exit 2 and one line, on every verb -----------------------


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own exit
        return exc.code


CONFIG_CASES = [
    (["--algorithm", "mpi-only", "--threads", "2"],
     dict(algorithm="mpi-only", nthreads=2)),
    (["--uhf", "--multiplicity", "2", "--incremental"],
     dict(method="uhf", multiplicity=2, incremental=True)),
    (["--uhf", "--algorithm", "mpi-only"],
     dict(method="uhf", algorithm="mpi-only")),
]


@pytest.mark.parametrize("verb", RUN_VERBS)
@pytest.mark.parametrize("flags,spec", CONFIG_CASES)
def test_config_violation_is_one_typed_line_everywhere(
    verb, flags, spec, water_xyz, tmp_path, capsys
):
    """The CLI's line is the text a JobSpecError carries on the wire."""
    with pytest.raises(JobSpecError) as wire:
        JobSpec(xyz=water_xyz.read_text(), **spec).validate()
    extra = ["--service-dir", str(tmp_path / "svc")] if verb == "submit" else []
    assert _exit_code([verb, str(water_xyz), *extra, *flags]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: {wire.value}"
    assert "Traceback" not in err and "\n" not in err


@pytest.mark.parametrize("verb", RUN_VERBS)
@pytest.mark.parametrize("flags", [
    ["--ranks", "0"], ["--threads", "-1"], ["--eri-cache-mb", "0"],
    ["--multiplicity", "0"], ["--rebuild-every", "0"],
    ["--max-iterations", "0"], ["--algorithm", "magic"],
])
def test_out_of_range_numbers_exit_2(verb, flags, water_xyz, capsys):
    assert _exit_code([verb, str(water_xyz), *flags]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_validate_holds_the_same_ranges_as_the_flags():
    for bad in (dict(nranks=0), dict(nthreads=-1), dict(eri_cache_mb=0),
                dict(multiplicity=0), dict(rebuild_every=0),
                dict(max_iterations=0), dict(nranks="2"), dict(nranks=True)):
        with pytest.raises(ConfigError):
            SCFConfig(**bad).validate()
    SCFConfig(eri_cache_mb=None, max_iterations=None).validate()


@pytest.mark.parametrize("verb", ("scf", "profile"))
@pytest.mark.parametrize("flags,words", [
    (["--uhf", "--multiplicity", "2"], "multiplicity 2 inconsistent"),
    (["--charge", "1"], "even electron count"),
    (["--basis", "no-such-basis"], "unknown basis set"),
    (["--fault-plan", "kill:rank=9:cycle=1:after=0"], "invalid --fault-plan"),
])
def test_molecule_dependent_setup_failure_is_one_line(
    verb, flags, words, water_xyz, tmp_path, capsys
):
    extra = ["--output-dir", str(tmp_path / "out")] if verb == "profile" else []
    assert _exit_code([verb, str(water_xyz), *extra, *flags]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and words in err
    assert "Traceback" not in err and "\n" not in err


@pytest.mark.parametrize("verb", RUN_VERBS)
def test_missing_or_unreadable_xyz_is_one_line(verb, tmp_path, capsys):
    extra = ["--service-dir", str(tmp_path / "svc")] if verb == "submit" else []
    for path in (tmp_path / "absent.xyz", tmp_path):  # missing; a directory
        assert _exit_code([verb, str(path), *extra]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: cannot read {path}")
        assert "Traceback" not in err and "\n" not in err


def test_garbled_xyz_is_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("3\nnot really\nO 0 0\n")
    assert _exit_code(["scf", str(bad)]) == 2
    assert "is not a usable XYZ geometry" in capsys.readouterr().err


# -- records say what ran ------------------------------------------------------


def test_uhf_run_is_registered_as_uhf_private_fock(tmp_path, capsys):
    xyz = tmp_path / "oh.xyz"
    xyz.write_text(OH_XYZ)
    assert main(["scf", str(xyz), "--uhf", "--multiplicity", "2"]) == 0
    out = capsys.readouterr().out
    assert "UHF energy" in out and "<S^2>" in out
    registry = RunRegistry()
    config = registry.load(registry.find("latest"))["config"]
    assert config["method"] == "uhf"
    assert config["algorithm"] == "private-fock"
    assert config["multiplicity"] == 2


def test_scf_can_cap_iterations(water_xyz, capsys):
    assert main(["scf", str(water_xyz), "--max-iterations", "2"]) == 1
    assert "SCF failed" in capsys.readouterr().err


# -- (b) the wire format did not move ------------------------------------------

#: ``JobSpec(xyz=H2).to_dict()`` as the parent commit wrote it.
PARENT_SPEC = {
    "xyz": "2\nh2\nH 0.0 0.0 0.0\nH 0.0 0.0 0.74\n", "basis": "sto-3g",
    "algorithm": "shared-fock", "nranks": 1, "nthreads": 1, "backend": "sim",
    "schedule": "dlb", "charge": 0, "eri_cache_mb": 64.0,
    "incremental": False, "max_iterations": None, "fault_plan": None,
    "tag": None, "sleep_s": 0.0, "cycle_delay_s": 0.0,
    "die_on_attempt": None, "die_after_builds": 1,
}
PARENT_MANIFEST = (
    '{"molecule": "h2", "repeat": 2}\n'
    '{"molecule": "water", "algorithm": "mpi-only", "nranks": 2}\n'
)


def test_spec_without_new_fields_serialises_as_before():
    assert JobSpec(xyz=PARENT_SPEC["xyz"]).to_dict() == PARENT_SPEC
    assert JobSpec.from_dict(PARENT_SPEC).to_dict() == PARENT_SPEC
    # A new field appears on the wire only when it is used.
    uhf = JobSpec(xyz=OH_XYZ, method="uhf", multiplicity=2)
    assert set(uhf.to_dict()) - set(PARENT_SPEC) == {"method", "multiplicity"}
    assert JobSpec.from_dict(uhf.to_dict()) == uhf


def test_manifest_and_plan_fingerprints_are_the_parents():
    """Literals computed at the parent commit: the daemon's exactly-once
    intake marker is the plan fingerprint, so these may never move."""
    specs = parse_manifest(PARENT_MANIFEST)
    assert manifest_fingerprint(specs) == "bca13b24fa4c2f63"
    plan = make_batch_scheduler("binned", seed=0, window=4).plan(specs)
    assert plan.fingerprint == "544af8a946ec6fa6"


# -- (a) one config, three surfaces, the same bits -----------------------------

#: tag -> (geometry, scf flags, the same config as manifest-entry fields)
PARITY = {
    "rhf-shared": ("water", ["--ranks", "2", "--threads", "2"],
                   dict(nranks=2, nthreads=2)),
    "rhf-mpi-static-direct": (
        "water",
        ["--algorithm", "mpi-only", "--ranks", "3", "--schedule", "static",
         "--no-eri-cache"],
        dict(algorithm="mpi-only", nranks=3, schedule="static",
             eri_cache_mb=None)),
    "rhf-incremental": (
        "water",
        ["--algorithm", "private-fock", "--threads", "2", "--incremental",
         "--rebuild-every", "3"],
        dict(algorithm="private-fock", nthreads=2, incremental=True,
             rebuild_every=3)),
    "rhf-anion": ("oh", ["--charge", "-1", "--basis", "6-31g"],
                  dict(charge=-1, basis="6-31g")),
    "uhf-doublet": (
        "oh", ["--uhf", "--multiplicity", "2", "--ranks", "2", "--threads", "2"],
        dict(method="uhf", multiplicity=2, nranks=2, nthreads=2)),
}
#: The UHF doublet again, its worker killed mid-job on the first attempt.
KILLED = "uhf-doublet-killed"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Every PARITY config as one manifest through a real
    ``repro serve --fleet 1``; yields (root dir, results by tag, journal)."""
    root = tmp_path_factory.mktemp("parity")
    (root / "water.xyz").write_text(water().to_xyz())
    (root / "oh.xyz").write_text(OH_XYZ)
    entries = [
        {"xyz_file": f"{geometry}.xyz", "tag": tag, **entry}
        for tag, (geometry, _flags, entry) in PARITY.items()
    ]
    entries.append({**entries[-1], "tag": KILLED, "die_on_attempt": 1})
    manifest = root / "parity.ndjson"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    service_dir = root / "svc"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--service-dir", str(service_dir), "--runs-dir", str(root / "runs"),
         "--fleet", "1", "--backoff-base", "0.05", "--backoff-cap", "0.2",
         "--manifest", str(manifest)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    client = JobClient(service_dir)
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                client.ping()
                break
            except ServiceUnavailable:
                assert proc.poll() is None, "daemon exited before serving"
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.1)
        jobs = {
            job["tag"]: client.result(job["id"], timeout_s=240)
            for job in client.status()["jobs"]
        }
        journal = [json.loads(line) for line in
                   (service_dir / "journal.ndjson").read_text().splitlines()
                   if line.strip()]
        yield root, jobs, journal
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _direct(root: Path, tag: str):
    geometry, _flags, entry = PARITY[tag]
    config = SCFConfig(**entry)
    mol = Molecule.from_xyz((root / f"{geometry}.xyz").read_text(),
                            charge=config.charge)
    with build_scf(config, BasisSet(mol, config.basis)) as scf:
        return scf.run()


@pytest.mark.process
@pytest.mark.timeout(300)
@pytest.mark.parametrize("tag", PARITY)
def test_cli_service_and_build_scf_agree_bitwise(tag, served):
    root, jobs, _journal = served
    geometry, flags, _entry = PARITY[tag]
    direct = _direct(root, tag)

    runs = root / f"cli-runs-{tag}"
    assert main(["scf", str(root / f"{geometry}.xyz"), *flags,
                 "--runs-dir", str(runs), "--quiet"]) == 0
    registry = RunRegistry(runs)
    summary = registry.load(registry.find("latest"))["summary"]

    job = jobs[tag]
    assert job["state"] == "done" and job["attempt"] == 1
    assert summary["energy"] == job["result"]["energy"] == direct.energy
    assert (summary["iterations"] == job["result"]["iterations"]
            == direct.scf.niterations)
    if PARITY[tag][2].get("method") == "uhf":
        assert job["result"]["s_squared"] == direct.scf.s_squared


@pytest.mark.process
@pytest.mark.timeout(300)
def test_uhf_job_survives_the_worker_kill_drill_exactly_once(served, capsys):
    root, jobs, journal = served
    job, twin = jobs[KILLED], jobs["uhf-doublet"]
    assert job["state"] == "done"
    assert job["attempt"] == 2  # attempt 1 died inside its second build
    assert job["result"]["resumed"]
    assert job["result"]["energy"] == twin["result"]["energy"]
    assert job["result"]["iterations"] == twin["result"]["iterations"]
    mine = [r for r in journal if r.get("id") == job["id"]
            or r.get("job", {}).get("id") == job["id"]]
    assert sum(r["op"] == "submit" for r in mine) == 1
    assert sum(r.get("state") == "done" for r in mine) == 1

    # `repro result` says what ran.
    assert main(["result", job["id"], "--service-dir", str(root / "svc"),
                 "--no-wait"]) == 0
    out = capsys.readouterr().out
    assert "UHF energy" in out and "<S^2>" in out and "RHF" not in out
