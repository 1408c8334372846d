"""The unlearner registry: one constructor, one entry point, six methods.

The crucial property: every registered adapter produces **bit-identical**
outcomes to calling the underlying protocol/baseline directly — the
registry is an API, not a reimplementation.
"""

import numpy as np
import pytest

from repro.experiments import SMOKE, runner
from repro.experiments.common import backdoor_spec, goldfish_config
from repro.unlearning import (
    ClientDeletionRequest,
    FedEraser,
    FedEraserConfig,
    FedRecovery,
    IncompetentTeacherConfig,
    available_methods,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
    get_unlearner,
    make_unlearner,
)

TINY = SMOKE.with_overrides(
    train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=20,
)


def _pretrained(seed):
    return runner.prepare(backdoor_spec("mnist", 0.06), TINY, seed=seed).scenario


def _assert_states_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key])


class TestRegistryLookup:
    def test_available_methods(self):
        assert available_methods() == (
            "b1", "b2", "b3", "federaser", "fedrecovery", "ours"
        )

    def test_level_filter(self):
        assert available_methods(level="client") == ("federaser", "fedrecovery")
        assert "ours" in available_methods(level="sample")

    def test_aliases_resolve_to_canonical(self):
        assert get_unlearner("goldfish") is get_unlearner("ours")
        assert get_unlearner("retrain") is get_unlearner("b1")
        assert get_unlearner("rapid_retrain") is get_unlearner("b2")
        assert get_unlearner("incompetent_teacher") is get_unlearner("b3")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown unlearning method"):
            get_unlearner("magic")

    def test_constructor_validates_rounds(self):
        setup = _pretrained(0)
        with pytest.raises(ValueError):
            make_unlearner("b1", setup.config, num_rounds=0)


class TestBitIdenticalSampleLevel:
    """Registry adapter vs direct protocol call — weight-for-weight equal."""

    def test_ours(self):
        direct = _pretrained(5)
        direct.register_deletion()
        config = goldfish_config(TINY, train=direct.config)
        direct_outcome = federated_goldfish(
            direct.sim, config, TINY.unlearn_rounds
        )

        via = _pretrained(5)
        via.register_deletion()
        outcome = make_unlearner(
            "ours", via.config, TINY.unlearn_rounds
        ).unlearn(via.sim)
        _assert_states_equal(direct_outcome.global_model, outcome.global_model)
        assert outcome.round_accuracies == direct_outcome.round_accuracies

    def test_b1(self):
        direct = _pretrained(6)
        direct.register_deletion()
        direct_outcome = federated_retrain(
            direct.sim, direct.config, TINY.unlearn_rounds
        )

        via = _pretrained(6)
        outcome = make_unlearner("b1", via.config, TINY.unlearn_rounds).unlearn(
            via.sim, (ClientDeletionRequest.of(0, via.poison_indices),)
        )
        _assert_states_equal(direct_outcome.global_model, outcome.global_model)

    def test_b2(self):
        direct = _pretrained(7)
        direct.register_deletion()
        direct_outcome = federated_rapid_retrain(
            direct.sim, direct.config, TINY.unlearn_rounds
        )

        via = _pretrained(7)
        via.register_deletion()
        outcome = make_unlearner("b2", via.config, TINY.unlearn_rounds).unlearn(
            via.sim
        )
        _assert_states_equal(direct_outcome.global_model, outcome.global_model)

    def test_b3(self):
        direct = _pretrained(8)
        direct.register_deletion()
        direct_outcome = federated_incompetent_teacher(
            direct.sim,
            IncompetentTeacherConfig(train=direct.config),
            TINY.unlearn_rounds,
        )

        via = _pretrained(8)
        via.register_deletion()
        outcome = make_unlearner("b3", via.config, TINY.unlearn_rounds).unlearn(
            via.sim
        )
        _assert_states_equal(direct_outcome.global_model, outcome.global_model)


class TestBitIdenticalClientLevel:
    def _with_history(self, seed):
        prepared = runner.prepare(
            backdoor_spec("mnist", 0.06), TINY, seed=seed, with_history=True
        )
        return prepared.scenario, prepared.history

    def test_federaser(self):
        direct, history = self._with_history(9)
        eraser = FedEraser(
            direct.model_factory,
            FedEraserConfig(
                calibration_epochs=1,
                learning_rate=direct.config.learning_rate,
                batch_size=direct.config.batch_size,
            ),
        )
        state, report = eraser.unlearn(
            history,
            direct.sim.server.initial_state,
            [client.dataset for client in direct.sim.clients],
            forget_client_id=0,
            rng=np.random.default_rng(77),
        )
        direct_model = direct.model_factory()
        direct_model.load_state_dict(state)

        via, via_history = self._with_history(9)
        outcome = make_unlearner(
            "federaser", via.config, TINY.unlearn_rounds
        ).unlearn(
            via.sim, (ClientDeletionRequest.of(0),),
            history=via_history, rng=np.random.default_rng(77),
        )
        _assert_states_equal(direct_model, outcome.global_model)
        assert outcome.rounds_run == report.rounds_replayed
        assert outcome.local_epochs_total == report.calibration_epochs_run

    def test_fedrecovery(self):
        direct, history = self._with_history(10)
        state, _ = FedRecovery().unlearn(
            history, direct.sim.server.global_state, forget_client_id=0,
        )
        direct_model = direct.model_factory()
        direct_model.load_state_dict(state)

        via, via_history = self._with_history(10)
        outcome = make_unlearner(
            "fedrecovery", via.config, TINY.unlearn_rounds
        ).unlearn(
            via.sim, (ClientDeletionRequest.of(0),),
            history=via_history, rng=np.random.default_rng(3),
        )
        _assert_states_equal(direct_model, outcome.global_model)

    def test_fedrecovery_release_ignores_the_rng(self):
        """The release is the noiseless subtraction: the generator the
        caller passes draws nothing, so any seed gives the same model."""
        models = []
        for rng_seed in (3, 99):
            via, via_history = self._with_history(10)
            models.append(
                make_unlearner("fedrecovery", via.config, TINY.unlearn_rounds)
                .unlearn(
                    via.sim, (ClientDeletionRequest.of(0),),
                    history=via_history, rng=np.random.default_rng(rng_seed),
                )
                .global_model
            )
        _assert_states_equal(*models)

    @pytest.mark.parametrize("name", ["federaser", "fedrecovery"])
    def test_no_request_names_no_client(self, name):
        """Without a request there is no client to erase: the call fails
        closed, before any work, instead of erasing client 0."""
        via, via_history = self._with_history(11)
        before = via.sim.server.global_state
        rounds = len(via_history)
        with pytest.raises(ValueError, match="request naming the client"):
            make_unlearner(name, via.config, TINY.unlearn_rounds).unlearn(
                via.sim, (), history=via_history, rng=np.random.default_rng(3),
            )
        after = via.sim.server.global_state
        for key, value in before.items():
            np.testing.assert_array_equal(value, after[key])
        assert len(via_history) == rounds

    def test_history_required(self):
        setup = _pretrained(11)
        with pytest.raises(ValueError, match="history"):
            make_unlearner("federaser", setup.config, 1).unlearn(
                setup.sim, (ClientDeletionRequest.of(0),)
            )


class TestNormalizedOutcome:
    def test_outcome_provenance(self):
        setup = _pretrained(12)
        setup.register_deletion()
        outcome = make_unlearner("b1", setup.config, TINY.unlearn_rounds).unlearn(
            setup.sim
        )
        assert outcome.method == "b1"
        assert outcome.chains == TINY.unlearn_rounds * TINY.num_clients
        assert outcome.provenance["method"] == "b1"
        assert outcome.provenance["level"] == "sample"
        assert outcome.wall_seconds > 0

    def test_requests_file_deletions(self):
        setup = _pretrained(13)
        assert not setup.sim.clients[0].has_pending_deletion
        make_unlearner("b1", setup.config, TINY.unlearn_rounds).unlearn(
            setup.sim, (ClientDeletionRequest.of(0, setup.poison_indices),)
        )
        # the flow finalized the deletion: data physically dropped
        expected = TINY.train_size // TINY.num_clients - len(setup.poison_indices)
        assert len(setup.sim.clients[0].dataset) == expected

    @pytest.mark.parametrize(
        "indices",
        [[2.5, 3.9], [True, False], [1.0, np.nan], [np.inf], ["3"]],
        ids=["fractional", "boolean-mask", "nan", "inf", "string"],
    )
    def test_request_indices_are_whole_numbers_never_truncated(self, indices):
        with pytest.raises(ValueError):
            ClientDeletionRequest.of(0, indices)

    def test_request_of_sorts_and_dedupes(self):
        assert ClientDeletionRequest.of(0, [4, 2.0, 4]).indices == (2, 4)

    def test_a_fractional_request_fails_before_the_flow_starts(self):
        setup = _pretrained(14)
        before = setup.sim.server.global_state
        unlearner = make_unlearner("ours", setup.config, TINY.unlearn_rounds)
        # Built by ``of`` or directly, 2.5 names no sample.
        for request in (lambda: ClientDeletionRequest.of(0, [2.5]),
                        lambda: ClientDeletionRequest(0, (2.5,))):
            with pytest.raises(ValueError, match="whole numbers"):
                unlearner.unlearn(setup.sim, [request()])
        assert not setup.sim.clients[0].has_pending_deletion
        after = setup.sim.server.global_state
        assert before.keys() == after.keys()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
