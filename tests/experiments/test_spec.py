"""The declarative scenario/experiment spec layer."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.data.dataset import SharedArrayDataset
from repro.experiments import SMOKE, fig6_shards
from repro.experiments.common import backdoor_spec
from repro.experiments.spec import (
    AttackSpec,
    DatasetSpec,
    DeletionSpec,
    ExperimentSpec,
    FederationSpec,
    PartitionSpec,
    ScenarioSpec,
    build_scenario,
)

TINY = SMOKE.with_overrides(
    train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=20,
)


def _full_spec() -> ScenarioSpec:
    return ScenarioSpec(
        dataset=DatasetSpec(name="fmnist", train_size=200, test_size=80),
        partition=PartitionSpec(strategy="label_skewed", options={"alpha": 0.3}),
        attack=AttackSpec(kind="backdoor", trigger_size=5, trigger_value=4.0,
                          target_label=2),
        deletion=DeletionSpec(rate=0.04, client_id=1),
        federation=FederationSpec(num_clients=4, aggregator="fedavg_uniform",
                                  share_datasets=False),
        model="lenet5",
    )


class TestFields:
    """The sub-specs keep their field sets; a removed field is a typo,
    not a knob."""

    @pytest.mark.parametrize(
        "cls, names",
        [
            (DatasetSpec, ["name", "train_size", "test_size"]),
            (PartitionSpec, ["strategy", "options"]),
            (AttackSpec, ["kind", "trigger_size", "trigger_value",
                          "trigger_corner", "target_label"]),
            (DeletionSpec, ["rate", "client_id"]),
            (FederationSpec, ["num_clients", "aggregator", "share_datasets"]),
            (ScenarioSpec, ["dataset", "partition", "attack", "deletion",
                            "federation", "model"]),
            (ExperimentSpec, ["experiment_id", "title", "scenario", "methods"]),
        ],
    )
    def test_field_names(self, cls, names):
        assert [field.name for field in fields(cls)] == names

    @pytest.mark.parametrize(
        "cls, name, value",
        [
            (FederationSpec, "async_mode", True),
            (FederationSpec, "buffer_size", 4),
            (FederationSpec, "max_staleness", 2),
            (FederationSpec, "straggler_timeout", 2.5),
            (FederationSpec, "compression", "delta"),
            (FederationSpec, "vectorize", True),
            (DeletionSpec, "selector", "random"),
            (DeletionSpec, "target_class", 3),
            (DeletionSpec, "ratee", 0.1),
        ],
    )
    def test_removed_field_is_not_a_knob(self, cls, name, value):
        with pytest.raises(TypeError):
            cls(**{name: value})

    @pytest.mark.parametrize("name, value", [("kind", "rate_table"),
                                             ("params", {"rates": [0.06]})])
    def test_experiment_spec_takes_no_kind_or_params(self, name, value):
        with pytest.raises(TypeError):
            ExperimentSpec("X", "y", **{name: value})

    def test_methods_become_a_tuple(self):
        assert ExperimentSpec("X", "y", methods=["ours", "b1"]).methods == ("ours", "b1")

    @pytest.mark.parametrize("methods", [("magic",), ("ours", "retrain"), ["b1", ""]])
    def test_unknown_method_is_rejected_when_the_spec_is_built(self, methods):
        """Not after pretraining, when the loop reaches the name."""
        with pytest.raises(ValueError, match="unknown unlearning method"):
            ExperimentSpec("X", "y", methods=methods)


class TestRateSweep:
    """A sweep derives each point with dataclasses.replace."""

    def test_replace_changes_only_the_rate(self):
        spec = _full_spec()
        swept = replace(spec, deletion=replace(spec.deletion, rate=0.10))
        assert swept.deletion == DeletionSpec(rate=0.10, client_id=1)
        assert replace(swept, deletion=spec.deletion) == spec

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            replace(_full_spec().deletion, rate=1.5)


class TestValidation:
    def test_unknown_attack_kind(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="gradient_inversion")
        with pytest.raises(ValueError):
            AttackSpec(kind="label_flip")

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            DeletionSpec(rate=1.5)


class TestBuilder:
    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_scenario(
                ScenarioSpec(dataset=DatasetSpec(name="svhn")), TINY
            )

    def test_deletion_client_out_of_range(self):
        spec = replace(_full_spec(), deletion=DeletionSpec(rate=0.04, client_id=4))
        with pytest.raises(ValueError, match="out of range"):
            build_scenario(spec, TINY)

    def test_register_deletion_files_the_subset(self):
        scenario = build_scenario(_full_spec(), TINY, seed=1)
        scenario.register_deletion()
        assert scenario.deletion_client_id == 1
        clients = scenario.sim.clients
        np.testing.assert_array_equal(
            clients[1].forget_indices, scenario.poison_indices
        )
        assert not any(clients[i].has_pending_deletion for i in (0, 2, 3))

    def test_spec_sizes_override_the_scale(self):
        scenario = build_scenario(_full_spec(), TINY, seed=1)
        assert len(scenario.test_set) == 80
        assert len(scenario.poison_indices) == round(0.04 * 200)
        assert scenario.sim.fed_data.num_clients == 4

    def test_share_flag_respected(self):
        scenario = build_scenario(backdoor_spec("mnist", 0.06, share=True), TINY, seed=2)
        assert isinstance(scenario.sim.clients[0].dataset, SharedArrayDataset)

    def test_share_auto_follows_backend(self):
        spec = backdoor_spec("mnist", 0.06)
        scenario = build_scenario(spec, TINY, seed=2, backend="pool:2")
        assert isinstance(scenario.sim.clients[0].dataset, SharedArrayDataset)
        serial = build_scenario(spec, TINY, seed=2)
        assert not isinstance(serial.sim.clients[0].dataset, SharedArrayDataset)

    @pytest.mark.parametrize(
        "spec",
        [
            backdoor_spec("mnist", 0.06),
            fig6_shards.spec_for().scenario,
        ],
        ids=["backdoor", "fig6"],
    )
    def test_paper_specs_build(self, spec):
        """The attack is planted on exactly the deleted subset, and a spec
        with ``attack.kind="none"`` plants nothing."""
        scenario = build_scenario(spec, TINY, seed=3)
        assert len(scenario.poison_indices) == round(0.06 * TINY.train_size)
        client0 = scenario.sim.clients[0].dataset
        if spec.attack.kind == "none":
            assert scenario.attack is None
            assert set(scenario.evaluate(scenario.sim.global_model())) == {"acc"}
        else:
            assert (
                client0.labels[scenario.poison_indices]
                == scenario.attack.target_label
            ).all()

    def test_one_seed_builds_one_scenario(self):
        a = build_scenario(_full_spec(), TINY, seed=4)
        b = build_scenario(_full_spec(), TINY, seed=4)
        np.testing.assert_array_equal(a.poison_indices, b.poison_indices)
        for x, y in zip(a.fed_data.client_datasets, b.fed_data.client_datasets):
            np.testing.assert_array_equal(x.images, y.images)
            np.testing.assert_array_equal(x.labels, y.labels)
