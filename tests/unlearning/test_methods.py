"""Running an unlearning method by name: ``runner.run_method``.

The crucial property: ``run_method(prepared, name, scale)`` is the
method's flow in ``repro.unlearning.protocols`` called directly on the
same pretrained scenario, weight for weight, for each of the six names.
"""

import numpy as np
import pytest

from repro.experiments import SMOKE, runner
from repro.experiments.common import backdoor_spec, goldfish_config
from repro.unlearning import (
    CLIENT_LEVEL_METHODS,
    METHODS,
    IncompetentTeacherConfig,
    federated_federaser,
    federated_fedrecovery,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)

TINY = SMOKE.with_overrides(
    train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=20,
)

SAMPLE_LEVEL = [name for name in METHODS if name not in CLIENT_LEVEL_METHODS]


def _prepared(seed, with_history=False):
    return runner.prepare(
        backdoor_spec("mnist", 0.06), TINY, seed=seed, with_history=with_history
    )


def _assert_states_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key])


def _direct(method, prepared):
    """``method``'s flow called directly, with the arguments the paper's
    experiments give it."""
    scenario = prepared.scenario
    sim, config, rounds = scenario.sim, scenario.config, TINY.unlearn_rounds
    client_id = scenario.deletion_client_id
    if method == "federaser":
        return federated_federaser(
            sim, config, prepared.history, client_id, np.random.default_rng(77)
        )
    if method == "fedrecovery":
        return federated_fedrecovery(sim, prepared.history, client_id)
    scenario.register_deletion()
    if method == "ours":
        return federated_goldfish(
            sim, goldfish_config(TINY, train=config), rounds
        )
    if method == "b1":
        return federated_retrain(sim, config, rounds)
    if method == "b2":
        return federated_rapid_retrain(sim, config, rounds)
    return federated_incompetent_teacher(
        sim, IncompetentTeacherConfig(train=config), rounds
    )


def test_the_six_methods():
    assert METHODS == ("ours", "b1", "b2", "b3", "federaser", "fedrecovery")
    assert set(CLIENT_LEVEL_METHODS) < set(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_run_method_is_the_flow(method):
    """Same seed, same pretrained scenario: the name dispatch and the
    direct flow call give the same model and the same outcome."""
    history = method in CLIENT_LEVEL_METHODS
    direct = _direct(method, _prepared(5, with_history=history))
    via = runner.run_method(
        _prepared(5, with_history=history), method, TINY,
        rng=np.random.default_rng(77),
    )
    _assert_states_equal(direct.global_model, via.global_model)
    assert via.round_accuracies == direct.round_accuracies
    assert via.rounds_run == direct.rounds_run
    assert via.local_epochs_total == direct.local_epochs_total
    assert via.chains == direct.chains


@pytest.mark.parametrize("method", SAMPLE_LEVEL)
def test_sample_level_chains_are_one_task_per_client_per_round(method):
    outcome = runner.run_method(_prepared(6), method, TINY)
    assert outcome.rounds_run == TINY.unlearn_rounds
    assert outcome.chains == TINY.unlearn_rounds * TINY.num_clients
    assert outcome.wall_seconds > 0


def _server_state_unchanged(before, sim):
    after = sim.server.global_state
    assert set(after) == set(before)
    for key, value in before.items():
        np.testing.assert_array_equal(value, after[key])


def test_unknown_name_fails_before_the_snapshot_is_restored(monkeypatch):
    prepared = _prepared(12)

    def restored(sim):
        raise AssertionError("the snapshot was restored before the check")

    monkeypatch.setattr(prepared.snapshot, "restore", restored)
    with pytest.raises(ValueError, match="unknown unlearning method"):
        runner.run_method(prepared, "magic", TINY)


@pytest.mark.parametrize("method", SAMPLE_LEVEL)
def test_zero_rounds_fail_before_the_global_model_is_touched(method):
    prepared = _prepared(13)
    sim = prepared.scenario.sim
    before = sim.server.global_state
    with pytest.raises(ValueError, match="num_rounds"):
        runner.run_method(prepared, method, TINY.with_overrides(unlearn_rounds=0))
    _server_state_unchanged(before, sim)


@pytest.mark.parametrize("method", SAMPLE_LEVEL)
def test_sample_level_methods_drop_the_deleted_samples(method):
    """The flow finalizes the filed deletion: the subset is physically
    gone from the deleting client's data afterwards."""
    prepared = _prepared(14)
    scenario = prepared.scenario
    client = scenario.sim.clients[scenario.deletion_client_id]
    size = len(client.dataset)
    deleted = len(np.unique(scenario.poison_indices))
    assert deleted > 0
    runner.run_method(prepared, method, TINY)
    assert not client.has_pending_deletion
    assert len(client.dataset) == size - deleted


@pytest.mark.parametrize("method", CLIENT_LEVEL_METHODS)
def test_client_level_methods_file_no_sample_request(method):
    """Erasing the client whole leaves its sample request unfiled and its
    data as it was."""
    prepared = _prepared(14, with_history=True)
    scenario = prepared.scenario
    client = scenario.sim.clients[scenario.deletion_client_id]
    size = len(client.dataset)
    runner.run_method(prepared, method, TINY, rng=np.random.default_rng(0))
    assert not client.has_pending_deletion
    assert len(client.dataset) == size


@pytest.mark.parametrize("method", CLIENT_LEVEL_METHODS)
def test_a_client_outside_the_history_fails_closed(method):
    """A client the history never saw names nothing to erase: the flow
    fails before any work instead of erasing someone else."""
    prepared = _prepared(15, with_history=True)
    sim, history = prepared.scenario.sim, prepared.history
    before = sim.server.global_state
    rounds = len(history)
    stranger = len(sim.clients)
    with pytest.raises(ValueError, match="never appears"):
        if method == "federaser":
            federated_federaser(
                sim, prepared.scenario.config, history, stranger,
                np.random.default_rng(0),
            )
        else:
            federated_fedrecovery(sim, history, stranger)
    _server_state_unchanged(before, sim)
    assert len(history) == rounds


@pytest.mark.parametrize("method", [m for m in METHODS if m != "ours"])
def test_config_override_is_goldfish_only(method, monkeypatch):
    """A Goldfish configuration handed to another method fails before the
    snapshot is restored, instead of being dropped (B1, B2, FedEraser,
    FedRecovery) or misread as B3's configuration."""
    prepared = _prepared(7, with_history=True)

    def restored(sim):
        raise AssertionError("the snapshot was restored before the check")

    monkeypatch.setattr(prepared.snapshot, "restore", restored)
    override = goldfish_config(TINY, train=prepared.scenario.config)
    with pytest.raises(ValueError, match="config_override"):
        runner.run_method(prepared, method, TINY, config_override=override)


class TestClientLevel:
    def test_federaser_without_history(self):
        scenario = _prepared(8).scenario
        with pytest.raises(ValueError, match="history"):
            federated_federaser(
                scenario.sim, scenario.config, None, 0, np.random.default_rng(0)
            )

    def test_fedrecovery_without_history(self):
        with pytest.raises(ValueError, match="history"):
            federated_fedrecovery(_prepared(8).scenario.sim, None, 0)

    def test_fedrecovery_release_ignores_the_rng(self):
        """The release is the noiseless subtraction: the generator the
        caller passes draws nothing, so any seed gives the same model."""
        models = [
            runner.run_method(
                _prepared(10, with_history=True), "fedrecovery", TINY,
                rng=np.random.default_rng(rng_seed),
            ).global_model
            for rng_seed in (3, 99)
        ]
        _assert_states_equal(*models)

    def test_federaser_without_an_rng_seeds_zero(self):
        models = []
        for rng in (None, np.random.default_rng(0)):
            prepared = _prepared(11, with_history=True)
            scenario = prepared.scenario
            models.append(federated_federaser(
                scenario.sim, scenario.config, prepared.history,
                scenario.deletion_client_id, rng,
            ).global_model)
        _assert_states_equal(*models)

    def test_federaser_chains_and_epochs(self):
        outcome = runner.run_method(
            _prepared(11, with_history=True), "federaser", TINY,
            rng=np.random.default_rng(0),
        )
        # Every pretraining round is replayed; each remaining client runs
        # one calibration epoch in each.
        assert outcome.rounds_run == TINY.pretrain_rounds
        assert outcome.chains == outcome.rounds_run * (TINY.num_clients - 1)
        assert outcome.local_epochs_total == outcome.chains
        assert len(outcome.round_accuracies) == 1
