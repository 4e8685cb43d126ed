"""ConvergenceGuard: synthetic traces, staged fallback, level shifting."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.resilience import (
    RECOVERY_STAGES,
    ConvergenceGuard,
    SCFConvergenceError,
    level_shifted,
)


def feed(guard, energies, rms=None, start=1):
    """Feed a trace; return the non-None actions in order."""
    if rms is None:
        rms = [1e-3] * len(energies)
    actions = []
    for i, (e, r) in enumerate(zip(energies, rms), start=start):
        action = guard.observe(i, e, r)
        if action is not None:
            actions.append(action)
    return actions


# -- construction -------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"window": 2},
    {"patience": 0},
    {"damping": 0.0},
    {"damping": 1.0},
    {"level_shift": -0.1},
])
def test_guard_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ConvergenceGuard(**kwargs)


# -- diagnosis ----------------------------------------------------------------


def test_healthy_trace_never_triggers():
    guard = ConvergenceGuard()
    energies = [-74.0 + 0.9 ** k for k in range(20)]       # monotone descent
    rms = [10.0 ** (-1 - 0.3 * k) for k in range(20)]
    assert feed(guard, energies, rms) == []
    assert guard.actions == ()
    assert not guard.exhausted


def test_short_trace_is_inconclusive():
    guard = ConvergenceGuard(window=6)
    assert feed(guard, [-70.0, -69.0, -68.0]) == []        # rising but short


def test_diverging_trace_diagnosed():
    guard = ConvergenceGuard(window=6)
    feed(guard, [-74.0 + 0.5 * k for k in range(6)])
    assert guard.diagnose() == "diverging"


def test_oscillating_trace_diagnosed():
    guard = ConvergenceGuard(window=6)
    feed(guard, [-74.0 + 0.5 * (-1) ** k for k in range(6)])
    assert guard.diagnose() == "oscillating"


def test_converging_oscillation_is_not_flagged():
    # sign alternates but the amplitude collapses: healthy DIIS behaviour
    guard = ConvergenceGuard(window=6)
    feed(guard, [-74.0 + 0.5 * (-0.1) ** k for k in range(8)])
    assert guard.diagnose() is None


# -- escalation ---------------------------------------------------------------


def test_stages_escalate_with_patience_then_exhaust():
    guard = ConvergenceGuard(window=6, patience=4)
    energies = [-74.0 + 0.5 * k for k in range(20)]        # relentless rise
    registry = MetricsRegistry()
    with use_metrics(registry):
        actions = feed(guard, energies)
    assert [a.stage for a in actions] == list(RECOVERY_STAGES)
    assert [a.level for a in actions] == [1, 2, 3]
    assert [a.iteration for a in actions] == [6, 10, 14]   # window, +patience
    assert all(a.reason == "diverging" for a in actions)
    assert guard.exhausted
    assert guard.stages_applied == RECOVERY_STAGES
    snap = registry.snapshot()
    assert snap["scf.recovery_stage"] == 3
    for stage in RECOVERY_STAGES:
        assert snap[f"scf.recovery_actions{{stage={stage}}}"] == 1
    assert "recovery stages" in guard.failure_message()


def test_patience_suppresses_back_to_back_escalation():
    guard = ConvergenceGuard(window=6, patience=10)
    actions = feed(guard, [-74.0 + 0.5 * k for k in range(12)])
    assert len(actions) == 1                               # one action, waiting
    assert not guard.exhausted


def test_recovered_trace_stops_escalating():
    guard = ConvergenceGuard(window=6, patience=2)
    rising = [-74.0 + 0.5 * k for k in range(6)]
    actions = feed(guard, rising)
    assert len(actions) == 1
    # after the action the trace turns healthy: no further escalation
    falling = [rising[-1] - 0.5 * k for k in range(1, 10)]
    assert feed(guard, falling, start=7) == []
    assert not guard.exhausted


# -- level shifting -----------------------------------------------------------


def test_level_shift_raises_virtuals_only():
    # orthonormal AO basis: S = I, occupied projector on orbital 0
    F = np.diag([-1.0, 2.0, 3.0])
    S = np.eye(3)
    D_occ = np.diag([1.0, 0.0, 0.0])
    shifted = level_shifted(F, S, D_occ, 0.5)
    np.testing.assert_allclose(np.diag(shifted), [-1.0, 2.5, 3.5])


def test_level_shift_in_nonorthogonal_metric(water_sto3g):
    """Occupied eigenvalues are invariant; virtuals rise by the shift."""
    from scipy.linalg import eigh

    from repro.integrals.onee import kinetic_matrix, nuclear_matrix, overlap_matrix

    S = overlap_matrix(water_sto3g)
    F = kinetic_matrix(water_sto3g) + nuclear_matrix(water_sto3g)
    nocc = water_sto3g.molecule.nelectrons // 2
    eps, C = eigh(F, S)
    D_occ = C[:, :nocc] @ C[:, :nocc].T
    shift = 0.7
    eps2, _ = eigh(level_shifted(F, S, D_occ, shift), S)
    np.testing.assert_allclose(eps2[:nocc], eps[:nocc], atol=1e-10)
    np.testing.assert_allclose(eps2[nocc:], eps[nocc:] + shift, atol=1e-10)


# -- driver integration -------------------------------------------------------


def test_recovery_is_bitwise_neutral_on_healthy_run(water_sto3g):
    from repro.core.scf_driver import ParallelSCF

    plain = ParallelSCF(water_sto3g, "shared-fock", nranks=2, nthreads=2).run()
    guarded = ParallelSCF(
        water_sto3g, "shared-fock", nranks=2, nthreads=2
    ).run(recovery=True)
    assert guarded.energy == plain.energy


def _diverging(method, basis, **kwargs):
    """A front-end whose Fock builder forces a relentlessly rising energy."""
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix
    from repro.scf.rhf import RHF
    from repro.scf.uhf import UHF

    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    calls = [0]

    def bad_fock():
        calls[0] += 1
        return h + 0.5 * calls[0] * np.eye(basis.nbf)

    if method == "rhf":
        return RHF(basis, lambda D: (bad_fock(), {}), **kwargs)
    return UHF(
        basis, multiplicity=3,
        fock_builder=lambda da, db: (bad_fock(), bad_fock(), {}), **kwargs
    )


METHODS = pytest.mark.parametrize("method", ["rhf", "uhf"])


@METHODS
def test_exhausted_guard_raises_typed_error_with_partial_result(
    method, water_sto3g
):
    from repro.obs.events import EventLog, use_event_log
    from repro.scf.convergence import ConvergenceCriteria

    scf = _diverging(
        method, water_sto3g, criteria=ConvergenceCriteria(max_iterations=60)
    )
    log = EventLog()
    with use_event_log(log), pytest.raises(SCFConvergenceError) as err:
        scf.run(recovery=ConvergenceGuard(window=6, patience=3))
    assert err.value.stages_applied == RECOVERY_STAGES
    partial = err.value.result
    assert partial is not None
    assert not partial.converged
    assert partial.niterations < 60            # gave up before the cycle cap
    # damping -> level shift -> DIIS reset, each one announced, then out
    climbed = [
        (ev.fields["stage"], ev.fields["cycle"])
        for ev in log if ev.kind == "scf.recovery"
    ]
    assert climbed == list(zip(RECOVERY_STAGES, (6, 9, 12)))
    assert partial.niterations == 15


@METHODS
def test_nonconvergence_raises_in_strict_mode_only(method, water_sto3g):
    from repro.scf.convergence import ConvergenceCriteria

    criteria = ConvergenceCriteria(max_iterations=3)
    with pytest.raises(SCFConvergenceError) as err:
        _diverging(method, water_sto3g, criteria=criteria).run()
    assert err.value.result is not None
    assert err.value.result.niterations == 3
    assert err.value.stages_applied == ()

    res = _diverging(method, water_sto3g, criteria=criteria).run(strict=False)
    assert not res.converged
    assert res.niterations == 3
