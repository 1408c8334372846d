"""Every table/figure runner executes end-to-end at micro scale.

These tests verify the *harness* (wiring, columns, series), not the
paper-shape claims — those are exercised at larger scale by benchmarks/
and the integration tests.
"""

import pytest

import repro.experiments as ex
from repro.experiments import SMOKE

MICRO = SMOKE.with_overrides(
    train_size=150, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=30, deletion_rates=(0.06,),
    shard_counts=(1, 2), client_counts=(3,),
)


class TestFig4:
    def test_runs_and_has_series(self):
        result = ex.fig4_retraining.run("mnist", MICRO, num_rounds=2)
        assert set(result.series) == {"ours", "b1", "b2"}
        assert all(len(v) == 2 for v in result.series.values())
        assert len(result.rows) == 3

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            ex.fig4_retraining.run("svhn", MICRO)


class TestFig5Tables:
    def test_runs_one_rate(self):
        result = ex.fig5_backdoor.run("mnist", MICRO)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["rate"] == "6%"
        for column in ("origin_acc", "ours_bd", "b1_acc", "b3_bd"):
            assert 0 <= row[column] <= 100
        assert "fig5_origin_backdoor" in result.series

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            ex.fig5_backdoor.run("svhn", MICRO)


class TestTab7to9:
    def test_columns(self):
        result = ex.tab7_9_divergence.run("mnist", MICRO)
        row = result.rows[0]
        for column in ("b3_jsd", "b3_l2", "b3_t", "ours_jsd", "ours_l2", "ours_t"):
            assert row[column] >= 0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            ex.tab7_9_divergence.run("cifar100", MICRO)


class TestTab10and11:
    def test_ablation_variants_present(self):
        result = ex.tab10_ablation.run(MICRO, checkpoints=(1,), dataset="cifar10")
        metrics = {row["metric"] for row in result.rows}
        assert metrics == {"acc", "backdoor"}
        for row in result.rows:
            for variant in ("hard_only", "wo_distillation", "wo_confusion", "total"):
                assert 0 <= row[variant] <= 100

    def test_loss_compat_variants(self):
        result = ex.tab11_loss_compat.run(MICRO, checkpoints=(1,), dataset="cifar10")
        for row in result.rows:
            for variant in (
                "total_alpha", "total_beta", "total_gamma", "total_delta"
            ):
                assert 0 <= row[variant] <= 100


class TestFig6and7:
    def test_fig6_series_per_tau(self):
        result = ex.fig6_shards.run(MICRO, num_rounds=2)
        assert set(result.series) == {"tau=1", "tau=2"}

    def test_fig7_deletion_timeline(self):
        result = ex.fig7_shard_deletion.run_one_rate(
            MICRO, 0.06, deletion_round=1, num_rounds=3
        )
        for row in result.rows:
            assert row["affected_shards"] >= 1
        assert all(len(v) == 3 for v in result.series.values())

    def test_fig7_bad_deletion_round(self):
        with pytest.raises(ValueError):
            ex.fig7_shard_deletion.run_one_rate(MICRO, 0.06, deletion_round=5,
                                                num_rounds=3)


class TestFig8and9:
    def test_fig8_panel(self):
        result = ex.fig8_heterogeneous.run_one(MICRO, 3, num_rounds=2)
        assert set(result.series) >= {"fedavg", "adaptive"}
        assert len(result.rows) == 2

    def test_table12(self):
        result = ex.fig8_heterogeneous.run_table12(MICRO)
        assert result.rows[0]["variance"] > 0
        assert result.rows[0]["min_acc"] <= result.rows[0]["max_acc"]

    def test_fig9(self):
        result = ex.fig9_iid.run(MICRO, num_rounds=2)
        assert "fedavg_3clients" in result.series
        assert "adaptive_3clients" in result.series
        assert len(result.rows) == 2

    def test_fig9_spec_partition_options_reach_the_partitioner(self):
        # The spec hash covers partition.options, so the run must too: an
        # evolved spec's option is honoured (here: rejected), not dropped.
        from dataclasses import replace

        from repro.experiments import runner
        from repro.experiments.spec import PartitionSpec

        exp = ex.fig9_iid.spec_for("mnist")
        skewed = replace(
            exp,
            scenario=replace(
                exp.scenario,
                partition=PartitionSpec(strategy="label_skewed", options={"alpha": -1.0}),
            ),
        )
        with pytest.raises(ValueError, match="alpha must be positive"):
            runner.run_aggregation_iid(skewed, MICRO, num_rounds=1)
