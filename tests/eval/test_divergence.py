"""JSD / L2 / t-test metric mathematics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.eval import (
    compare_models,
    jensen_shannon_divergence,
    kl_divergence,
    l2_distance,
    mean_jsd,
    t_test_p_value,
)


def random_dist(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


class TestKL:
    def test_zero_for_identical(self, rng):
        p = random_dist(rng, 5)
        assert kl_divergence(p, p.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_different(self, rng):
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        assert kl_divergence(p, q) > 0.5

    def test_asymmetric(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_handles_zeros_in_p(self):
        assert np.isfinite(kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones(2) / 2, np.ones(3) / 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))


class TestJSD:
    def test_symmetric(self, rng):
        p, q = random_dist(rng, 6), random_dist(rng, 6)
        assert jensen_shannon_divergence(p, q) == pytest.approx(
            jensen_shannon_divergence(q, p)
        )

    def test_bounded_by_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        jsd = jensen_shannon_divergence(p, q)
        assert jsd == pytest.approx(np.log(2), abs=1e-9)

    def test_zero_for_identical(self, rng):
        p = random_dist(rng, 4)
        assert jensen_shannon_divergence(p, p.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_mean_jsd_uses_mean_distributions(self, rng):
        probs_a = np.stack([random_dist(rng, 4) for _ in range(10)])
        probs_b = np.stack([random_dist(rng, 4) for _ in range(10)])
        expected = jensen_shannon_divergence(probs_a.mean(0), probs_b.mean(0))
        assert mean_jsd(probs_a, probs_b) == pytest.approx(expected)

    def test_mean_jsd_requires_2d(self, rng):
        with pytest.raises(ValueError):
            mean_jsd(random_dist(rng, 4), random_dist(rng, 4))


class TestL2:
    def test_zero_for_identical(self, rng):
        probs = np.stack([random_dist(rng, 5) for _ in range(8)])
        assert l2_distance(probs, probs.copy()) == 0.0

    def test_matches_mse(self, rng):
        a = np.stack([random_dist(rng, 5) for _ in range(8)])
        b = np.stack([random_dist(rng, 5) for _ in range(8)])
        assert l2_distance(a, b) == pytest.approx(((a - b) ** 2).mean())


class TestTTest:
    def test_identical_returns_one(self, rng):
        probs = np.stack([random_dist(rng, 5) for _ in range(30)])
        assert t_test_p_value(probs, probs.copy()) == 1.0

    def test_clearly_different_confidences_small_p(self, rng):
        confident = np.zeros((40, 4)) + 0.01
        confident[:, 0] = 0.97
        uniform = np.full((40, 4), 0.25) + rng.normal(0, 0.005, (40, 4))
        uniform = np.abs(uniform)
        uniform /= uniform.sum(axis=1, keepdims=True)
        assert t_test_p_value(confident, uniform) < 0.001

    def test_similar_distributions_large_p(self, rng):
        base = np.stack([random_dist(rng, 4) for _ in range(50)])
        jitter = base + rng.normal(0, 1e-4, base.shape)
        jitter = np.abs(jitter)
        jitter /= jitter.sum(axis=1, keepdims=True)
        assert t_test_p_value(base, jitter) > 0.05


_UNIFORM = np.array([0.5, 0.5])
_ROWS = np.array([[0.9, 0.1], [0.6, 0.4], [0.7, 0.3]])
_ROWS_NAN = _ROWS.copy()
_ROWS_NAN[1, 0] = np.nan
_ROWS_INF = _ROWS.copy()
_ROWS_INF[2, 1] = np.inf

# Inputs no metric can score: each one raises rather than returning a
# value that reads as "no divergence" (0.0, p = 1.0) or a silent NaN.
UNSCORABLE = [
    ("kl-nan", kl_divergence, [np.nan, 1.0], _UNIFORM),
    ("kl-inf", kl_divergence, [np.inf, 1.0], _UNIFORM),
    ("kl-zero-mass-p", kl_divergence, [0.0, 0.0], _UNIFORM),
    ("kl-zero-mass-q", kl_divergence, _UNIFORM, [0.0, 0.0]),
    ("kl-empty", kl_divergence, np.empty(0), np.empty(0)),
    ("jsd-zero-mass", jensen_shannon_divergence, [0.0, 0.0], _UNIFORM),
    ("jsd-nan-q", jensen_shannon_divergence, _UNIFORM, [np.nan, 1.0]),
    ("mean-jsd-empty", mean_jsd, np.empty((0, 3)), np.empty((0, 3))),
    ("mean-jsd-nan", mean_jsd, _ROWS_NAN, _ROWS),
    ("l2-nan", l2_distance, _ROWS, _ROWS_NAN),
    ("l2-inf", l2_distance, _ROWS_INF, _ROWS),
    ("l2-empty", l2_distance, np.empty((0, 3)), np.empty((0, 3))),
    ("t-empty", t_test_p_value, np.empty((0, 3)), np.empty((0, 3))),
    ("t-one-row", t_test_p_value, [[0.9, 0.1]], [[0.6, 0.4]]),
    ("t-nan", t_test_p_value, _ROWS_NAN, _ROWS[::-1]),
    ("t-inf", t_test_p_value, _ROWS, _ROWS_INF),
]


@pytest.mark.parametrize(
    "metric, p, q", [row[1:] for row in UNSCORABLE],
    ids=[row[0] for row in UNSCORABLE])
def test_unscorable_inputs_raise(metric, p, q):
    with pytest.raises(ValueError):
        metric(p, q)


class TestCompareModels:
    def test_self_comparison_is_null(self):
        from repro.nn.models import MLP
        from ..conftest import make_blobs
        model = MLP(16, 3, np.random.default_rng(0))
        ds = make_blobs(num_samples=20, num_classes=3, shape=(1, 4, 4))
        report = compare_models(model, model, ds)
        assert report.jsd == pytest.approx(0.0, abs=1e-12)
        assert report.l2 == 0.0
        assert report.t_test_p == 1.0
        assert report.as_row() == (report.jsd, report.l2, report.t_test_p)

    def test_different_models_diverge(self):
        from repro.nn.models import MLP
        from ..conftest import make_blobs
        a = MLP(16, 3, np.random.default_rng(0))
        b = MLP(16, 3, np.random.default_rng(99))
        ds = make_blobs(num_samples=20, num_classes=3, shape=(1, 4, 4))
        report = compare_models(a, b, ds)
        assert report.l2 > 0
        assert report.jsd >= 0


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(2, 8),
               elements=st.floats(0.01, 10, allow_nan=False)),
    hnp.arrays(np.float64, st.integers(2, 8),
               elements=st.floats(0.01, 10, allow_nan=False)),
)
def test_property_jsd_bounds(p, q):
    """0 <= JSD <= ln 2 for any pair of (normalisable) distributions."""
    if len(p) != len(q):
        return
    jsd = jensen_shannon_divergence(p, q)
    assert -1e-12 <= jsd <= np.log(2) + 1e-9


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, st.integers(2, 8),
                  elements=st.floats(0.01, 10, allow_nan=False)))
def test_property_kl_nonnegative(p):
    """Gibbs inequality: KL(p‖q) >= 0."""
    rng = np.random.default_rng(int(p.sum() * 1000) % 2**31)
    q = rng.random(len(p)) + 0.01
    assert kl_divergence(p, q) >= -1e-10
