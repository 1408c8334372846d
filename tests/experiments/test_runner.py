"""The shared spec runner: kind dispatch, matrix driver, spec provenance."""

import pytest

from repro.experiments import SMOKE, runner
from repro.experiments.spec import ExperimentSpec, get_scenario

MICRO = SMOKE.with_overrides(
    train_size=150, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=30, deletion_rates=(0.06,),
)


class TestRunSpecDispatch:
    def test_unknown_kind(self):
        exp = ExperimentSpec(experiment_id="x", title="x", kind="nope")
        with pytest.raises(ValueError, match="unknown experiment kind"):
            runner.run_spec(exp, MICRO)

    def test_deletion_sla_kind_is_gone(self):
        exp = ExperimentSpec(experiment_id="x", title="x", kind="deletion_sla")
        with pytest.raises(ValueError, match="unknown experiment kind"):
            runner.run_spec(exp, MICRO)

    @pytest.mark.parametrize(
        "preset, cacheable",
        [("clean_deletion", True), ("backdoor", False), ("label_flip", False)],
    )
    def test_pretrain_cacheable_exactly_without_an_attack(self, preset, cacheable):
        assert runner._pretrain_cacheable(get_scenario(preset)) is cacheable

    def test_rate_table_through_dispatch(self):
        exp = ExperimentSpec(
            experiment_id="custom",
            title="label-flip rate table",
            kind="rate_table",
            scenario=get_scenario("label_flip"),
            methods=("ours",),
            params={"rates": [0.06]},
        )
        result = runner.run_spec(exp, MICRO)
        assert result.experiment_id == "custom"
        assert result.spec_hash == exp.hash()
        row = result.rows[0]
        assert {"rate", "origin_acc", "origin_bd", "ours_acc", "ours_bd"} <= set(row)

    def test_spec_hash_stamped_everywhere(self):
        import repro.experiments as ex

        result = ex.fig5_backdoor.run("mnist", MICRO)
        assert len(result.spec_hash) == 12
        result = ex.fig6_shards.run(MICRO, num_rounds=2)
        assert len(result.spec_hash) == 12


class TestNewScenariosEndToEnd:
    """Non-backdoor scenarios run from specs — no new experiment module."""

    def test_label_flip_unlearning_collapses_contamination(self):
        exp = ExperimentSpec(
            experiment_id="label-flip e2e",
            title="label flip",
            kind="matrix",
            scenario=get_scenario("label_flip"),
            methods=("ours", "b1"),
        )
        result = runner.run_matrix(exp, MICRO, seed=0)
        rows = {row["method"]: row for row in result.rows}
        assert set(rows) == {"origin", "ours", "b1"}
        # contamination is present at the origin and reduced by unlearning
        assert rows["origin"]["backdoor"] >= rows["ours"]["backdoor"]

    def test_clean_deletion_runs(self):
        exp = ExperimentSpec(
            experiment_id="clean e2e",
            title="clean deletion",
            kind="matrix",
            scenario=get_scenario("clean_deletion"),
            methods=("b1",),
        )
        result = runner.run_matrix(exp, MICRO, seed=0)
        rows = {row["method"]: row for row in result.rows}
        assert rows["b1"]["backdoor"] == 0.0  # no attack to measure
        assert 0 <= rows["b1"]["acc"] <= 100


class TestMatrix:
    def test_sweep_enumeration(self):
        exp = ExperimentSpec(
            experiment_id="m",
            title="m",
            kind="matrix",
            scenario=get_scenario("backdoor"),
            methods=("ours",),
            params={"sweeps": {"deletion.rate": [0.04, 0.08]}},
        )
        result = runner.run_matrix(exp, MICRO, seed=0)
        # 2 sweep cells x (origin + 1 method)
        assert len(result.rows) == 4
        assert [row["deletion.rate"] for row in result.rows] == [
            0.04, 0.04, 0.08, 0.08
        ]
        for row in result.rows:
            if row["method"] != "origin":
                assert row["rounds"] == MICRO.unlearn_rounds
                assert row["chains"] > 0

    def test_client_level_method_gets_history(self):
        exp = ExperimentSpec(
            experiment_id="m",
            title="m",
            kind="matrix",
            scenario=get_scenario("backdoor"),
            methods=("fedrecovery",),
        )
        result = runner.run_matrix(exp, MICRO, seed=0)
        rows = {row["method"]: row for row in result.rows}
        assert rows["fedrecovery"]["chains"] == 0
