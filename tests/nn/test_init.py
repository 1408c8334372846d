"""Parameter initialisers: fans, bounds and seeded determinism."""

import math

import numpy as np
import pytest

from repro.nn import init


class TestFans:
    def test_dense_weight_is_out_by_in(self):
        assert init._fan_in_out((3, 5)) == (5, 3)

    def test_conv_weight_counts_the_receptive_field(self):
        assert init._fan_in_out((16, 6, 5, 5)) == (6 * 25, 16 * 25)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (1, 2, 3, 4, 5)])
    def test_other_ranks_are_refused(self, shape):
        with pytest.raises(ValueError, match="unsupported weight shape"):
            init._fan_in_out(shape)


class TestKaimingUniform:
    @pytest.mark.parametrize("shape", [(64, 784), (16, 6, 5, 5)], ids=["dense", "conv"])
    def test_samples_fill_the_he_bound(self, shape):
        fan_in, _ = init._fan_in_out(shape)
        bound = math.sqrt(6.0 / fan_in)
        weights = init.kaiming_uniform(shape, np.random.default_rng(0))
        assert weights.shape == shape and weights.dtype == np.float64
        assert np.abs(weights).max() <= bound
        # Uniform on [-b, b]: the extremes come close to the bound and
        # the variance is b² / 3 = 2 / fan_in.
        assert np.abs(weights).max() > 0.95 * bound
        assert weights.var() == pytest.approx(2.0 / fan_in, rel=0.1)

    def test_same_generator_state_gives_the_same_weights(self):
        a = init.kaiming_uniform((8, 4), np.random.default_rng(3))
        b = init.kaiming_uniform((8, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestBiasUniform:
    def test_samples_stay_inside_one_over_root_fan_in(self):
        bias = init.bias_uniform((500,), 25, np.random.default_rng(0))
        assert np.abs(bias).max() <= 0.2
        assert np.abs(bias).max() > 0.19

    def test_zero_fan_in_gives_zeros(self):
        bias = init.bias_uniform((3,), 0, np.random.default_rng(0))
        np.testing.assert_array_equal(bias, np.zeros(3))


def test_constant_initialisers_are_float64():
    np.testing.assert_array_equal(init.zeros((2, 3)), np.zeros((2, 3)))
    np.testing.assert_array_equal(init.ones((4,)), np.ones(4))
    assert init.zeros((1,)).dtype == init.ones((1,)).dtype == np.float64
