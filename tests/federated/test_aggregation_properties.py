"""Generated and edge-case checks of the server's aggregators.

``test_aggregation.py`` pins FedAvg and Eq. 12–13 on hand-built cases
and ``test_engine.py::TestBufferedAggregator`` the buffered fold's
discount; here FedAvg is compared with ``np.average`` on generated
cohorts, the guards on malformed uploads are exercised, and the buffered
fold is held to the claim in its docstring: a full cohort at staleness 0
is FedAvg.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.federated import BufferedAggregator, BufferedUpdate, ClientUpdate, FedAvgAggregator

from ..conftest import generated


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


def buffered(updates, base, staleness=None):
    staleness = staleness or [0] * len(updates)
    return [
        BufferedUpdate(
            client_id=u.client_id,
            delta={key: u.state[key] - base[key] for key in base},
            num_samples=u.num_samples,
            staleness=s,
            state=u.state,
        )
        for u, s in zip(updates, staleness)
    ]


class TestBufferedFold:
    @generated(30)
    @given(cohort_spec=cohorts, weighting=st.sampled_from(["size", "uniform"]))
    def test_full_cohort_at_staleness_zero_is_fedavg(self, cohort_spec, weighting):
        updates = cohort(*cohort_spec)
        base = random_state(np.random.default_rng(cohort_spec[0] + 1))
        folded = BufferedAggregator(weighting=weighting).fold(base, buffered(updates, base))
        plain = FedAvgAggregator(weighting=weighting).aggregate(updates)
        for key in plain:
            np.testing.assert_allclose(folded[key], plain[key], rtol=1e-10, atol=1e-12)

    def test_inputs_are_left_untouched(self):
        updates = cohort(2, [3, 9])
        base = random_state(np.random.default_rng(5))
        base_before = {key: value.copy() for key, value in base.items()}
        batch = buffered(updates, base, staleness=[0, 2])
        deltas_before = [{k: v.copy() for k, v in u.delta.items()} for u in batch]
        BufferedAggregator().fold(base, batch)
        for key in base:
            np.testing.assert_array_equal(base[key], base_before[key])
        for update, delta in zip(batch, deltas_before):
            for key in delta:
                np.testing.assert_array_equal(update.delta[key], delta[key])

    def test_last_weights_are_the_normalised_discounted_sizes(self):
        aggregator = BufferedAggregator(weighting="size", staleness_exponent=0.5)
        updates = cohort(4, [10, 20, 30])
        base = random_state(np.random.default_rng(0))
        aggregator.fold(base, buffered(updates, base, staleness=[0, 3, 8]))
        raw = np.array([10 * 1.0, 20 * 4 ** -0.5, 30 * 9 ** -0.5])
        np.testing.assert_allclose(aggregator.last_weights, raw / raw.sum())

    @pytest.mark.parametrize(
        "exponent, staleness, expected",
        [(0.5, 3, 0.5), (1.0, 4, 0.2), (2.0, 1, 0.25)],
    )
    def test_staleness_weight_is_the_polynomial_discount(self, exponent, staleness, expected):
        aggregator = BufferedAggregator(staleness_exponent=exponent)
        assert aggregator.staleness_weight(staleness) == pytest.approx(expected)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="staleness"):
            BufferedAggregator().staleness_weight(-1)

    def test_non_finite_delta_rejected_naming_the_client(self):
        updates = cohort(0, [5, 5])
        base = random_state(np.random.default_rng(1))
        batch = buffered(updates, base)
        batch[1].delta["b"][0] = np.nan
        with pytest.raises(ValueError, match="client 1 buffered delta"):
            BufferedAggregator().fold(base, batch)

    def test_as_client_update_carries_the_raw_upload(self):
        update = buffered(cohort(6, [12]), random_state(np.random.default_rng(2)), [4])[0]
        plain = update.as_client_update()
        assert plain.state is update.state
        assert (plain.num_samples, plain.client_id) == (12, 0)
