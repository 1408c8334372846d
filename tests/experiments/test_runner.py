"""The shared spec runner: the paper-artifact loops and spec provenance."""

from repro.experiments import SMOKE, runner
from repro.experiments.common import backdoor_spec
from repro.experiments.spec import ExperimentSpec

MICRO = SMOKE.with_overrides(
    train_size=150, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=30, deletion_rates=(0.06,),
)


class TestRunnerLoops:
    def test_rate_table_stamps_its_spec(self):
        exp = ExperimentSpec(
            experiment_id="custom",
            title="backdoor rate table",
            kind="rate_table",
            scenario=backdoor_spec("mnist", 0.06),
            methods=("ours",),
            params={"rates": [0.06]},
        )
        result = runner.run_rate_table(exp, MICRO)
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
