"""The sweep-level pretrain cache: deletion.* cells share one snapshot.

Matrix cells that differ only in the deletion section pretrain identical
federations when no attack is planted (the deletion fields only *mark*
samples for later removal).  The cache keys on the spec hash with
deletion zeroed and must be bit-identical to a cold pretrain — and must
refuse to fire when the deletion fields *do* shape the training data
(attack scenarios poison exactly the to-be-deleted subset) or when
pretraining has a side effect the cache would lose (round history).
"""

import pytest

from repro.experiments import SMOKE, runner
from repro.experiments.runner import pretrain_cache_key
from repro.experiments.spec import ExperimentSpec, get_scenario

MICRO = SMOKE.with_overrides(
    train_size=150, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=30, deletion_rates=(0.06,),
)


def clean_matrix_spec(**params):
    return ExperimentSpec(
        experiment_id="cache",
        title="cache",
        kind="matrix",
        scenario=get_scenario("clean_deletion"),
        methods=("b1",),
        params={"sweeps": {"deletion.rate": [0.04, 0.08]}, **params},
    )


class TestCacheKey:
    def test_deletion_fields_zeroed_out(self):
        scenario = get_scenario("clean_deletion")
        low = scenario.with_overrides(**{"deletion.rate": 0.04})
        high = scenario.with_overrides(**{"deletion.rate": 0.08})
        other_client = scenario.with_overrides(**{"deletion.client_id": 2})
        assert pretrain_cache_key(low) == pretrain_cache_key(high)
        assert pretrain_cache_key(low) == pretrain_cache_key(other_client)

    def test_non_deletion_fields_still_distinguish(self):
        scenario = get_scenario("clean_deletion")
        more_clients = scenario.with_overrides(**{"federation.num_clients": 9})
        assert pretrain_cache_key(scenario) != pretrain_cache_key(more_clients)
        assert pretrain_cache_key(scenario) != pretrain_cache_key(
            get_scenario("clean_deletion", dataset="fmnist")
        )


class TestCacheBehaviour:
    def test_cached_prepare_bitwise_identical_to_cold(self):
        """The strong form: the unlearned model's *state dict* matches
        bit for bit, not just the (coarse) row metrics.  The cache must
        restore the post-pretrain client RNG positions — a fresh build
        alone would shuffle mini-batches differently than a cold cell.
        """
        import numpy as np

        from repro.experiments.runner import (
            _CachedPretrain, PreparedScenario, prepare, run_method,
        )
        from repro.experiments.spec import build_scenario

        scenario = get_scenario("clean_deletion")
        high = scenario.with_overrides(**{"deletion.rate": 0.08})
        cold = prepare(high, MICRO, seed=0)
        cold_outcome = run_method(cold, "b1", MICRO)

        donor = prepare(
            scenario.with_overrides(**{"deletion.rate": 0.04}), MICRO, seed=0
        )
        cached = _CachedPretrain.capture(donor).restore_into(
            build_scenario(high, MICRO, seed=0)
        )
        cached_outcome = run_method(cached, "b1", MICRO)

        cold_state = cold_outcome.global_model.state_dict()
        cached_state = cached_outcome.global_model.state_dict()
        for key in cold_state:
            np.testing.assert_array_equal(cold_state[key], cached_state[key])

    def test_cache_hit_bit_identical_to_cold_pretrain(self):
        cached = runner.run_matrix(clean_matrix_spec(), MICRO, seed=0)
        cold = runner.run_matrix(
            clean_matrix_spec(pretrain_cache=False), MICRO, seed=0
        )
        assert cached.runtime["pretrain_cache"] == {"hits": 1, "misses": 1}
        assert "pretrain_cache" not in cold.runtime
        # Every metric of every row identical — the shared snapshot is
        # indistinguishable from pretraining each cell from scratch.
        assert len(cached.rows) == len(cold.rows)
        for cached_row, cold_row in zip(cached.rows, cold.rows):
            for key in cached_row:
                if key == "wall_s":  # timing differs by construction
                    continue
                assert cached_row[key] == cold_row[key], (key, cached_row, cold_row)

    def test_attack_scenarios_never_cache(self):
        """Backdoor cells poison the to-be-deleted subset, so different
        rates train different data — the cache must stay cold."""
        exp = ExperimentSpec(
            experiment_id="cache",
            title="cache",
            kind="matrix",
            scenario=get_scenario("backdoor"),
            methods=("ours",),
            params={"sweeps": {"deletion.rate": [0.04, 0.08]}},
        )
        result = runner.run_matrix(exp, MICRO, seed=0)
        assert result.runtime["pretrain_cache"] == {"hits": 0, "misses": 0}

    def test_history_methods_disable_cache(self):
        exp = ExperimentSpec(
            experiment_id="cache",
            title="cache",
            kind="matrix",
            scenario=get_scenario("clean_deletion"),
            methods=("fedrecovery",),
            params={"sweeps": {"deletion.rate": [0.04, 0.08]}},
        )
        result = runner.run_matrix(exp, MICRO, seed=0)
        assert "pretrain_cache" not in result.runtime
