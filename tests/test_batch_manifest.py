"""Golden-file tests for manifest parsing and deterministic batch plans.

The fixtures under ``tests/golden/workload/`` pin three contracts:

* **format equivalence** — ``manifest.ndjson`` and ``manifest.toml``
  spell the same workload two ways (``repeat``, ``[defaults]``,
  ``xyz_file``) and must expand to byte-identical JobSpec lists with
  equal fingerprints;
* **plan determinism** — for a fixed (manifest, policy, window),
  the plan's full ``to_dict()`` — order, batches, fingerprint — matches
  the committed golden JSON exactly; a diff here means scheduling
  behavior changed and the golden must be regenerated *deliberately*;
* **typed manifest errors** — every malformation raises
  :class:`~repro.service.errors.ManifestError` carrying a
  ``file:line`` / ``job[k]`` locator, and the error survives the wire
  round-trip (``error_from_response``) as the same type, so batch
  clients can tell "fix your manifest" from service trouble.

Regenerating a golden plan after an intentional scheduler change::

    PYTHONPATH=src python -c "
    import json
    from pathlib import Path
    from repro.workload import load_manifest, make_batch_scheduler
    root = Path('tests/golden/workload')
    specs = load_manifest(root / 'manifest.ndjson')
    plan = make_batch_scheduler('binned', window=4).plan(specs)
    (root / 'plan_binned_seed0_w4.json').write_text(
        json.dumps(plan.to_dict(), indent=2, sort_keys=True) + '\n')"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service.errors import ManifestError, error_from_response
from repro.workload import (
    load_manifest,
    make_batch_scheduler,
    manifest_fingerprint,
    parse_manifest,
)

GOLDEN = Path(__file__).parent / "golden" / "workload"


# -- format equivalence -------------------------------------------------------


def test_ndjson_and_toml_fixtures_expand_identically():
    ndjson = load_manifest(GOLDEN / "manifest.ndjson")
    toml = load_manifest(GOLDEN / "manifest.toml")
    assert [s.to_dict() for s in ndjson] == [s.to_dict() for s in toml]
    assert manifest_fingerprint(ndjson) == manifest_fingerprint(toml)


def test_fixture_expansion_details():
    specs = load_manifest(GOLDEN / "manifest.ndjson")
    assert len(specs) == 9  # repeat: 2 expanded in place
    # Untagged entries get positional batch tags; explicit tags stick.
    assert specs[0].tag == "batch-0000"
    assert specs[1].tag == "light"
    assert specs[1].nranks == 2
    assert specs[4].tag == "from-file"
    # xyz_file is resolved relative to the manifest and read verbatim.
    raw = (GOLDEN / "stretched_h2.xyz").read_text(encoding="utf-8")
    assert specs[4].xyz == raw
    # repeat produces identical specs apart from the auto tag.
    a, b = specs[2].to_dict(), specs[3].to_dict()
    assert a.pop("tag") == "batch-0002" and b.pop("tag") == "batch-0003"
    assert a == b


# -- plan determinism against committed goldens -------------------------------


@pytest.mark.parametrize("policy,seed,window", [
    ("binned", 0, 4),
])
def test_plan_matches_golden(policy, seed, window):
    # ``seed`` only names the golden file: every plan records PLAN_SEED.
    specs = load_manifest(GOLDEN / "manifest.ndjson")
    plan = make_batch_scheduler(policy, window=window).plan(specs)
    assert plan.to_dict()["seed"] == seed
    golden = json.loads(
        (GOLDEN / f"plan_{policy}_seed{seed}_w{window}.json").read_text()
    )
    assert plan.to_dict() == golden


def test_golden_plans_are_real_permutations():
    # Guard against the fixture degenerating into manifest order, which
    # would make the plan goldens vacuous.
    for name in ("plan_binned_seed0_w4.json",):
        golden = json.loads((GOLDEN / name).read_text())
        assert golden["order"] != sorted(golden["order"]), name


def test_toml_fixture_plans_identically():
    ndjson = load_manifest(GOLDEN / "manifest.ndjson")
    toml = load_manifest(GOLDEN / "manifest.toml")
    scheduler = make_batch_scheduler("binned", window=4)
    assert scheduler.plan(ndjson).fingerprint == \
        scheduler.plan(toml).fingerprint


def test_cli_plan_only_prints_the_golden_plan(capsys):
    from repro.cli import main

    assert main(["batch", str(GOLDEN / "manifest.ndjson"),
                 "--plan-only", "--policy", "binned",
                 "--window", "4"]) == 0
    printed = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN / "plan_binned_seed0_w4.json").read_text())
    assert printed == golden


# -- malformed manifests: typed, located, wire-stable --------------------------


def _wire_round_trip(exc: ManifestError) -> Exception:
    """Serialize as the daemon would, rehydrate as the client would."""
    response = {"ok": False, "error": str(exc),
                "error_type": type(exc).__name__}
    return error_from_response(response)


BAD_CASES = [
    ("ndjson", '{"basis": "sto-3g"}',
     r"bad\.x:1: exactly one of xyz / molecule / xyz_file"),
    ("ndjson", '{"molecule": "water"}\n{"molecule": "unobtainium"}',
     r"bad\.x:2: unknown molecule 'unobtainium'"),
    ("ndjson", "not json at all",
     r"bad\.x:1: invalid JSON"),
    ("ndjson", '{"molecule": "water", "repeat": 0}',
     r"bad\.x:1: repeat must be an integer >= 1"),
    ("ndjson", '{"molecule": "water", "flavor": "blue"}',
     r"bad\.x:1: unknown spec field"),
    ("ndjson", '{"molecule": "water", "algorithm": "magic"}',
     r"bad\.x:1: unknown algorithm"),
    ("ndjson", '{"xyz_file": "no/such/file.xyz"}',
     r"bad\.x:1: cannot read xyz_file"),
    ("ndjson", "# only comments\n",
     r"bad\.x: manifest holds no jobs"),
    ("toml", "molecule = ???",
     r"bad\.x: invalid TOML"),
    ("toml", '[[job]]\nmolecule = "water"\nrepeat = 0\n',
     r"bad\.x: job\[0\]: repeat must be an integer >= 1"),
    ("toml", '[defaults]\nbasis = "sto-3g"\n',
     r"bad\.x: no \[\[job\]\] tables"),
    ("toml", '[[task]]\nmolecule = "water"\n',
     r"bad\.x: unknown top-level key"),
    # A strategy removed in PR 15 is outside input like any other typo.
    ("ndjson", '{"molecule": "water", "schedule": "guided"}',
     r"bad\.x:1: unknown schedule 'guided'; choose from \('dlb', 'static'\)"),
]


@pytest.mark.parametrize("fmt,text,pattern", BAD_CASES)
def test_malformed_manifest_raises_located_manifest_error(fmt, text, pattern):
    with pytest.raises(ManifestError, match=pattern) as excinfo:
        parse_manifest(text, fmt=fmt, source="bad.x")
    # The wire round-trip preserves the type and the locator message.
    rebuilt = _wire_round_trip(excinfo.value)
    assert type(rebuilt) is ManifestError
    assert str(rebuilt) == str(excinfo.value)


def test_manifest_error_is_a_value_error_for_cli_mapping():
    # cmd_serve maps ValueError to exit 2; ManifestError must qualify.
    assert issubclass(ManifestError, ValueError)


def test_unknown_suffix_is_a_manifest_error(tmp_path):
    path = tmp_path / "jobs.yaml"
    path.write_text("jobs: []\n")
    with pytest.raises(ManifestError, match="unknown manifest suffix"):
        load_manifest(path)


def test_missing_manifest_is_a_manifest_error(tmp_path):
    with pytest.raises(ManifestError, match="cannot read manifest"):
        load_manifest(tmp_path / "absent.ndjson")


def test_cli_rejects_bad_manifest_with_exit_2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"no_geometry": true}\n')
    assert main(["batch", str(bad), "--plan-only"]) == 2
    assert "exactly one of xyz / molecule / xyz_file" in \
        capsys.readouterr().err
