"""Gaussian mechanism, clipping and zCDP accountant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import (
    GaussianMechanism,
    PrivacyAccountant,
    add_gaussian_noise,
    clip_state_by_l2,
    clip_vector_by_l2,
    gaussian_sigma,
    rho_to_epsilon,
    zcdp_rho,
)

from ..conftest import NON_FINITE


def state_norm(state):
    return math.sqrt(sum(float((v ** 2).sum()) for v in state.values()))


class TestClipping:
    def test_vector_below_norm_unchanged(self):
        v = np.array([3.0, 4.0])  # norm 5
        np.testing.assert_allclose(clip_vector_by_l2(v, 10.0), v)

    def test_vector_above_norm_scaled(self):
        v = np.array([3.0, 4.0])
        clipped = clip_vector_by_l2(v, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction preserved.
        np.testing.assert_allclose(clipped / np.linalg.norm(clipped), v / 5.0)

    def test_zero_vector_stays_zero(self):
        v = np.zeros(4)
        np.testing.assert_allclose(clip_vector_by_l2(v, 1.0), v)

    def test_state_clipped_as_one_vector(self):
        state = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_state_by_l2(state, 2.5)
        assert state_norm(clipped) == pytest.approx(2.5)
        # Per-key ratio preserved (global, not per-tensor, clipping).
        assert clipped["a"][0] / clipped["b"][0] == pytest.approx(3.0 / 4.0)

    def test_returns_copies(self):
        state = {"a": np.array([1.0])}
        clipped = clip_state_by_l2(state, 10.0)
        clipped["a"][0] = 99.0
        assert state["a"][0] == 1.0

    def test_invalid_norm_rejected(self):
        with pytest.raises(ValueError):
            clip_vector_by_l2(np.ones(2), 0.0)
        with pytest.raises(ValueError):
            clip_state_by_l2({"a": np.ones(2)}, -1.0)

    @given(
        values=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=20
        ),
        max_norm=st.floats(0.01, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_clip_never_exceeds_bound(self, values, max_norm):
        v = np.asarray(values, dtype=np.float64)
        clipped = clip_vector_by_l2(v, max_norm)
        assert np.linalg.norm(clipped) <= max_norm * (1 + 1e-9)


class TestGaussianMechanism:
    def test_sigma_formula(self):
        sigma = gaussian_sigma(epsilon=1.0, delta=1e-5, sensitivity=2.0)
        assert sigma == pytest.approx(2.0 * math.sqrt(2 * math.log(1.25e5)))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_sigma(0.0, 1e-5, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 1e-5, -1.0)

    def test_noise_changes_state_and_zero_sigma_is_identity(self, rng):
        state = {"w": np.ones((4, 4)), "b": np.zeros(4)}
        noisy = add_gaussian_noise(state, 0.5, rng)
        assert not np.allclose(noisy["w"], state["w"])
        clean = add_gaussian_noise(state, 0.0, rng)
        np.testing.assert_allclose(clean["w"], state["w"])
        clean["w"][0, 0] = 9.0  # copy, not alias
        assert state["w"][0, 0] == 1.0

    def test_noise_statistics(self):
        rng = np.random.default_rng(7)
        state = {"w": np.zeros(200_00)}
        noisy = add_gaussian_noise(state, 2.0, rng)
        assert noisy["w"].std() == pytest.approx(2.0, rel=0.05)
        assert abs(noisy["w"].mean()) < 0.1

    def test_for_budget_release_respects_clip(self, rng):
        mech = GaussianMechanism.for_budget(epsilon=1.0, delta=1e-5, max_norm=1.0)
        big = {"w": np.full(10, 100.0)}
        released = mech.release(big, rng)
        # Clipped to norm 1, then noise at sigma ~= 4.8: released norm
        # should be far below the unclipped norm of ~316.
        assert state_norm(released) < 100.0

    def test_mechanism_validation(self):
        with pytest.raises(ValueError):
            GaussianMechanism(max_norm=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianMechanism(max_norm=1.0, sigma=-1.0)


class TestAccounting:
    def test_zcdp_rho_formula(self):
        assert zcdp_rho(sensitivity=2.0, sigma=4.0) == pytest.approx(4.0 / 32.0)

    def test_rho_to_epsilon_monotone_in_rho(self):
        eps = [rho_to_epsilon(rho, 1e-5) for rho in (0.01, 0.1, 1.0)]
        assert eps[0] < eps[1] < eps[2]

    def test_accountant_composes_additively(self):
        accountant = PrivacyAccountant(delta=1e-6)
        accountant.spend(0.1)
        accountant.spend(0.2)
        assert accountant.total_rho == pytest.approx(0.3)
        assert accountant.num_releases == 2
        assert accountant.epsilon() == pytest.approx(rho_to_epsilon(0.3, 1e-6))

    def test_accountant_validation(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(delta=0.0)
        accountant = PrivacyAccountant(delta=1e-5)
        with pytest.raises(ValueError):
            accountant.spend(-0.1)

    @given(
        rhos=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=10),
        delta=st.floats(1e-10, 0.1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_composition_never_cheaper_than_single(self, rhos, delta):
        """Composing k releases can never yield a smaller ε than any one."""
        accountant = PrivacyAccountant(delta=delta)
        for rho in rhos:
            accountant.spend(rho)
        assert accountant.epsilon() >= max(
            rho_to_epsilon(rho, delta) for rho in rhos
        ) - 1e-12

    def test_gaussian_mechanism_budget_roundtrip(self):
        """σ from (ε,δ) then accounted back through zCDP lands near ε.

        The two analyses (classic Gaussian-mechanism theorem vs zCDP
        conversion) are not identical but agree to within a few percent at
        small ε — a sanity check that both formulas are implemented right.
        """
        epsilon, delta = 0.8, 1e-6
        mech = GaussianMechanism.for_budget(epsilon, delta, max_norm=1.0)
        roundtrip = rho_to_epsilon(mech.rho, delta)
        assert roundtrip == pytest.approx(epsilon, rel=0.05)


STATE = {"w": np.array([3.0, 4.0])}

# (name, call that validates the value, a value it accepts)
HYPER_PARAMETERS = [
    ("clip_vector_by_l2.max_norm", lambda v: clip_vector_by_l2(STATE["w"], v), 1.0),
    ("clip_state_by_l2.max_norm", lambda v: clip_state_by_l2(STATE, v), 1.0),
    ("gaussian_sigma.epsilon", lambda v: gaussian_sigma(v, 1e-5, 1.0), 1.0),
    ("gaussian_sigma.delta", lambda v: gaussian_sigma(1.0, v, 1.0), 1e-5),
    ("gaussian_sigma.sensitivity", lambda v: gaussian_sigma(1.0, 1e-5, v), 1.0),
    ("add_gaussian_noise.sigma", lambda v: add_gaussian_noise(STATE, v, np.random.default_rng(0)), 0.5),
    ("zcdp_rho.sensitivity", lambda v: zcdp_rho(v, 1.0), 1.0),
    ("zcdp_rho.sigma", lambda v: zcdp_rho(1.0, v), 1.0),
    ("rho_to_epsilon.rho", lambda v: rho_to_epsilon(v, 1e-5), 0.5),
    ("rho_to_epsilon.delta", lambda v: rho_to_epsilon(0.5, v), 1e-5),
    ("GaussianMechanism.max_norm", lambda v: GaussianMechanism(max_norm=v, sigma=1.0), 1.0),
    ("GaussianMechanism.sigma", lambda v: GaussianMechanism(max_norm=1.0, sigma=v), 1.0),
    ("PrivacyAccountant.delta", lambda v: PrivacyAccountant(delta=v), 1e-5),
    ("PrivacyAccountant.spend", lambda v: PrivacyAccountant(delta=1e-5).spend(v), 0.5),
]


class TestHyperParametersAreFinite:
    """A NaN budget, noise scale or clip norm fails every range check;
    each one is rejected rather than yielding a NaN guarantee or no
    clipping at all."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("validator", HYPER_PARAMETERS, ids=lambda v: v[0])
    def test_non_finite_rejected(self, validator, value):
        name, validate, typical = validator
        validate(typical)
        with pytest.raises(ValueError):
            validate(value)
