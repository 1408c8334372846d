"""Generated and edge-case checks of the server's aggregators.

``test_aggregation.py`` pins FedAvg and Eq. 12–13 on hand-built cases;
here FedAvg is compared with ``np.average`` on generated cohorts, Eq.
12–13 is held to its shape on generated cohorts of models, and the
guards on malformed uploads are exercised.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.federated import AdaptiveWeightAggregator, ClientUpdate, FedAvgAggregator
from repro.nn.models import MLP

from ..conftest import generated, make_blobs


def random_state(rng):
    return {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}


def cohort(seed, sizes):
    rng = np.random.default_rng(seed)
    return [
        ClientUpdate(state=random_state(rng), num_samples=n, client_id=i)
        for i, n in enumerate(sizes)
    ]


def copies(updates):
    return [{key: value.copy() for key, value in u.state.items()} for u in updates]


cohorts = st.tuples(
    st.integers(0, 10_000), st.lists(st.integers(1, 500), min_size=1, max_size=6)
)


class TestFedAvgGenerated:
    @generated(40)
    @given(cohort_spec=cohorts)
    def test_size_weighting_is_the_weighted_mean(self, cohort_spec):
        updates = cohort(*cohort_spec)
        out = FedAvgAggregator().aggregate(updates)
        for key in out:
            expected = np.average(
                np.stack([u.state[key] for u in updates]),
                axis=0,
                weights=[u.num_samples for u in updates],
            )
            np.testing.assert_allclose(out[key], expected, rtol=1e-12, atol=1e-12)

    @generated(40)
    @given(cohort_spec=cohorts, order_seed=st.integers(0, 1000))
    def test_client_order_does_not_matter(self, cohort_spec, order_seed):
        updates = cohort(*cohort_spec)
        order = np.random.default_rng(order_seed).permutation(len(updates))
        out = FedAvgAggregator().aggregate(updates)
        shuffled = FedAvgAggregator().aggregate([updates[i] for i in order])
        for key in out:
            np.testing.assert_allclose(shuffled[key], out[key], rtol=1e-12, atol=1e-12)

    @generated(40)
    @given(cohort_spec=cohorts, factor=st.integers(2, 50))
    def test_only_relative_sizes_matter(self, cohort_spec, factor):
        seed, sizes = cohort_spec
        out = FedAvgAggregator().aggregate(cohort(seed, sizes))
        scaled = FedAvgAggregator().aggregate(cohort(seed, [n * factor for n in sizes]))
        for key in out:
            np.testing.assert_allclose(scaled[key], out[key], rtol=1e-12, atol=1e-12)


class TestFedAvgGuards:
    def test_uniform_weighting_ignores_sizes(self):
        updates = cohort(3, [1, 1000])
        out = FedAvgAggregator(weighting="uniform").aggregate(updates)
        for key in out:
            np.testing.assert_allclose(
                out[key], 0.5 * (updates[0].state[key] + updates[1].state[key])
            )

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValueError, match="weighting"):
            FedAvgAggregator(weighting="median")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_upload_rejected_naming_the_client(self, bad):
        updates = cohort(0, [5, 5, 5])
        updates[2].state["w"][1, 0] = bad
        with pytest.raises(ValueError, match="client 2 upload"):
            FedAvgAggregator().aggregate(updates)

    def test_key_mismatch_rejected(self):
        updates = cohort(0, [5, 5])
        updates[1].state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="extra"):
            FedAvgAggregator().aggregate(updates)

    def test_shape_mismatch_rejected(self):
        updates = cohort(0, [5, 5])
        updates[1].state["b"] = np.zeros(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            FedAvgAggregator().aggregate(updates)

    def test_result_owns_its_arrays(self):
        updates = cohort(1, [4])
        before = copies(updates)
        out = FedAvgAggregator().aggregate(updates)
        for key in out:
            out[key] += 100.0
        for key, value in before[0].items():
            np.testing.assert_array_equal(updates[0].state[key], value)


ADAPTIVE_TEST_SET = make_blobs(num_samples=30, num_classes=3, shape=(1, 4, 4), seed=4)


def mlp_factory():
    return MLP(16, 3, np.random.default_rng(42))


def model_cohort(seeds, sizes):
    return [
        ClientUpdate(
            state=MLP(16, 3, np.random.default_rng(seed)).state_dict(),
            num_samples=size,
            client_id=i,
        )
        for i, (seed, size) in enumerate(zip(seeds, sizes))
    ]


model_seeds = st.lists(st.integers(0, 10_000), min_size=2, max_size=5, unique=True)


class TestAdaptiveGenerated:
    @generated(20)
    @given(seeds=model_seeds, data=st.data())
    def test_lower_error_never_weighs_less_and_sizes_do_not_count(self, seeds, data):
        sizes = data.draw(st.lists(st.integers(1, 500), min_size=len(seeds), max_size=len(seeds)))
        aggregator = AdaptiveWeightAggregator(ADAPTIVE_TEST_SET, mlp_factory)
        out = aggregator.aggregate(model_cohort(seeds, sizes))
        order = np.argsort(aggregator.last_mse, kind="stable")
        assert np.all(np.diff(aggregator.last_weights[order]) <= 0)
        resized = AdaptiveWeightAggregator(ADAPTIVE_TEST_SET, mlp_factory).aggregate(
            model_cohort(seeds, [1] * len(seeds))
        )
        for key in out:
            np.testing.assert_array_equal(resized[key], out[key])

    @generated(20)
    @given(seeds=model_seeds, order_seed=st.integers(0, 1000))
    def test_client_order_does_not_matter(self, seeds, order_seed):
        updates = model_cohort(seeds, [10] * len(seeds))
        order = np.random.default_rng(order_seed).permutation(len(updates))
        out = AdaptiveWeightAggregator(ADAPTIVE_TEST_SET, mlp_factory).aggregate(updates)
        shuffled = AdaptiveWeightAggregator(ADAPTIVE_TEST_SET, mlp_factory).aggregate(
            [updates[i] for i in order]
        )
        for key in out:
            np.testing.assert_allclose(shuffled[key], out[key], rtol=1e-12, atol=1e-12)
