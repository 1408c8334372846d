"""The shared spec runner: its building blocks and the loops' arguments."""

import numpy as np
import pytest

import repro.experiments as ex
from repro.experiments import SMOKE, runner
from repro.experiments.common import backdoor_spec
from repro.experiments.spec import ExperimentSpec, build_scenario

MICRO = SMOKE.with_overrides(
    train_size=150, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=30, deletion_rates=(0.06,),
)


def _no_training(monkeypatch):
    """Make any pretraining or shard training fail the test."""
    def trained(*args, **kwargs):
        raise AssertionError("training started before the arguments were checked")

    monkeypatch.setattr(runner, "prepare", trained)
    monkeypatch.setattr(runner, "ShardedClientTrainer", trained)


class TestBuildingBlocks:
    def test_prepare_pretrains_the_scale_rounds_unless_told(self):
        spec = backdoor_spec("mnist", 0.06)
        default = runner.prepare(spec, MICRO.with_overrides(pretrain_rounds=2))
        told = runner.prepare(spec, MICRO, pretrain_rounds=2)
        one = runner.prepare(spec, MICRO)
        assert default.history is None
        a, b, c = (p.origin.state_dict() for p in (default, told, one))
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert any(not np.array_equal(a[key], c[key]) for key in a)

    def test_prepare_records_history_on_request(self):
        prepared = runner.prepare(backdoor_spec("mnist", 0.06), MICRO,
                                  with_history=True)
        assert prepared.history.storage_report().total_bytes > 0

    def test_evaluate_model_reports_zero_backdoor_without_an_attack(self):
        scenario = build_scenario(ex.fig6_shards.spec_for().scenario, MICRO)
        metrics = runner.evaluate_model(scenario.sim.global_model(), scenario)
        assert set(metrics) == {"acc", "backdoor"}
        assert metrics["backdoor"] == 0.0

    def test_run_method_restores_the_snapshot_each_time(self):
        prepared = runner.prepare(backdoor_spec("mnist", 0.06), MICRO, seed=1)
        first = runner.run_method(prepared, "b1", MICRO)
        second = runner.run_method(prepared, "b1", MICRO)
        assert first.rounds_run == second.rounds_run == MICRO.unlearn_rounds
        deleting = prepared.scenario.sim.clients[0]
        assert len(deleting.dataset) == (
            MICRO.train_size // MICRO.num_clients
            - len(prepared.scenario.poison_indices)
        )


class TestLoopArguments:
    def test_rate_table_takes_its_rates(self):
        exp = ExperimentSpec(
            "custom", "backdoor rate table",
            scenario=backdoor_spec("mnist", 0.06), methods=("ours",),
        )
        result = runner.run_rate_table(exp, MICRO, rates=(0.04, 0.06))
        assert result.experiment_id == "custom"
        assert [row["rate"] for row in result.rows] == ["4%", "6%"]
        assert {"origin_acc", "origin_bd", "ours_acc", "ours_bd"} <= set(result.rows[0])
        assert set(result.series) == {"fig5_origin_backdoor", "fig5_ours_backdoor"}

    def test_divergence_reference_must_run(self):
        exp = ex.tab7_9_divergence.spec_for("mnist")
        with pytest.raises(ValueError, match="reference 'b2'"):
            runner.run_divergence(exp, MICRO, reference="b2", compared=("ours",))

    def test_aggregators_name_the_series(self):
        result = runner.run_aggregation_panel(
            ex.fig8_heterogeneous.spec_for(), MICRO, 3, num_rounds=1,
            aggregators={"only": "fedavg_uniform"},
        )
        assert [row["aggregator"] for row in result.rows] == ["only"]
        assert set(result.series) == {"only", "only_client_std"}


class TestBadArgumentsFailBeforeTraining:
    """A loop argument outside its range raises ValueError naming it,
    before any training."""

    @pytest.mark.parametrize("deletion_round", [0, -1])
    def test_fig7_deletion_round_before_the_first_round(
        self, deletion_round, monkeypatch
    ):
        _no_training(monkeypatch)
        with pytest.raises(ValueError, match="deletion_round"):
            ex.fig7_shard_deletion.run_one_rate(
                MICRO, 0.06, deletion_round=deletion_round, num_rounds=4
            )

    def test_fig6_negative_rounds(self, monkeypatch):
        _no_training(monkeypatch)
        with pytest.raises(ValueError, match="num_rounds"):
            ex.fig6_shards.run(MICRO, num_rounds=-2)

    def test_tab10_checkpoint_zero(self, monkeypatch):
        _no_training(monkeypatch)
        with pytest.raises(ValueError, match="checkpoints"):
            ex.tab10_ablation.run(MICRO, checkpoints=(0, 1), dataset="mnist")
