"""The declarative scenario/experiment spec layer."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.data import LabelFlipAttack
from repro.data.dataset import SharedArrayDataset
from repro.experiments import SMOKE
from repro.experiments.spec import (
    AttackSpec,
    DatasetSpec,
    DeletionSpec,
    ExperimentSpec,
    FederationSpec,
    PartitionSpec,
    SCENARIO_PRESETS,
    ScenarioSpec,
    build_scenario,
    get_scenario,
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
        deletion=DeletionSpec(selector="attacked", rate=0.04, client_id=1),
        federation=FederationSpec(num_clients=4, aggregator="fedavg_uniform",
                                  share_datasets=False),
        model="lenet5",
    )


class TestRoundTrip:
    def test_scenario_json_round_trip(self):
        spec = _full_spec()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_default_scenario_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_experiment_json_round_trip(self):
        exp = ExperimentSpec(
            experiment_id="Fig X",
            title="t",
            kind="rate_table",
            scenario=_full_spec(),
            methods=("ours", "b1"),
            params={"rates": (0.02, 0.06), "variants": {"a": {"x": 1}}},
        )
        payload = json.loads(json.dumps(exp.to_dict()))
        restored = ExperimentSpec.from_dict(payload)
        assert restored == exp  # tuples canonicalised to lists on both sides
        assert restored.hash() == exp.hash()

    def test_hash_changes_with_content(self):
        spec = _full_spec()
        assert spec.hash() != spec.with_overrides(**{"deletion.rate": 0.08}).hash()

    def test_hash_stable_across_processes(self):
        """The spec hash must not depend on process state (PYTHONHASHSEED)."""
        spec = _full_spec()
        script = (
            "from repro.experiments.spec import ScenarioSpec;"
            "import json, sys;"
            "print(ScenarioSpec.from_dict(json.loads(sys.argv[1])).hash())"
        )
        import os
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        for seed in ("0", "42"):
            out = subprocess.run(
                [sys.executable, "-c", script, json.dumps(spec.to_dict())],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": seed},
            )
            assert out.stdout.strip() == spec.hash()


class TestOverrides:
    def test_dotted_override(self):
        spec = _full_spec().with_overrides(
            **{"deletion.rate": 0.10, "federation.num_clients": 7}
        )
        assert spec.deletion.rate == 0.10
        assert spec.federation.num_clients == 7
        assert spec.attack.trigger_size == 5  # untouched

    def test_top_level_override(self):
        assert _full_spec().with_overrides(model="resnet8_slim").model == "resnet8_slim"

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown spec path"):
            _full_spec().with_overrides(**{"deletion.ratee": 0.1})
        with pytest.raises(ValueError, match="unknown spec path"):
            _full_spec().with_overrides(**{"nope.rate": 0.1})


class TestFederationSpecIsSynchronous:
    """The async fields are gone: a sweep over one is a typo, not a knob."""

    @pytest.mark.parametrize(
        "path, value",
        [
            ("federation.async_mode", True),
            ("federation.buffer_size", 4),
            ("federation.max_staleness", 2),
            ("federation.straggler_timeout", 2.5),
        ],
    )
    def test_removed_async_path_rejected(self, path, value):
        with pytest.raises(ValueError, match="unknown spec path"):
            _full_spec().with_overrides(**{path: value})

    def test_federation_fields(self):
        assert list(_full_spec().to_dict()["federation"]) == [
            "num_clients", "aggregator", "share_datasets", "compression", "vectorize",
        ]


class TestValidation:
    def test_unknown_attack_kind(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="gradient_inversion")

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            DeletionSpec(selector="everything")

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            DeletionSpec(rate=1.5)

    def test_attack_with_random_selector_rejected(self):
        with pytest.raises(ValueError, match="random"):
            ScenarioSpec(
                attack=AttackSpec(kind="backdoor"),
                deletion=DeletionSpec(selector="random"),
            )


class TestBuilder:
    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_scenario(
                ScenarioSpec(dataset=DatasetSpec(name="svhn")), TINY
            )

    def test_label_flip_scenario_builds(self):
        scenario = build_scenario(get_scenario("label_flip"), TINY, seed=1)
        assert isinstance(scenario.attack, LabelFlipAttack)
        client0 = scenario.sim.clients[0].dataset
        assert (
            client0.labels[scenario.poison_indices]
            == scenario.attack.target_label
        ).all()
        metrics = scenario.evaluate(scenario.sim.global_model())
        assert set(metrics) == {"acc", "backdoor"}

    def test_clean_deletion_scenario_builds(self):
        scenario = build_scenario(get_scenario("clean_deletion"), TINY, seed=1)
        assert scenario.attack is None
        assert len(scenario.poison_indices) == round(0.06 * TINY.train_size)
        metrics = scenario.evaluate(scenario.sim.global_model())
        assert set(metrics) == {"acc"}

    def test_class_deletion_scenario_builds(self):
        scenario = build_scenario(get_scenario("class_deletion"), TINY, seed=1)
        client0 = scenario.sim.clients[0].dataset
        deleted_labels = client0.labels[scenario.poison_indices]
        assert len(set(deleted_labels.tolist())) == 1  # exactly one class
        # every local sample of that class is covered
        target = deleted_labels[0]
        assert len(scenario.poison_indices) == int((client0.labels == target).sum())

    def test_deletion_requests_shape(self):
        scenario = build_scenario(get_scenario("backdoor"), TINY, seed=1)
        (request,) = scenario.deletion_requests()
        assert request.client_id == 0
        np.testing.assert_array_equal(
            np.asarray(request.indices), scenario.poison_indices
        )

    def test_share_flag_respected(self):
        spec = get_scenario("backdoor").with_overrides(
            **{"federation.share_datasets": True}
        )
        scenario = build_scenario(spec, TINY, seed=2)
        assert isinstance(scenario.sim.clients[0].dataset, SharedArrayDataset)

    def test_share_auto_follows_backend(self):
        scenario = build_scenario(get_scenario("backdoor"), TINY, seed=2,
                                  backend="pool:2")
        assert isinstance(scenario.sim.clients[0].dataset, SharedArrayDataset)
        serial = build_scenario(get_scenario("backdoor"), TINY, seed=2)
        assert not isinstance(serial.sim.clients[0].dataset, SharedArrayDataset)

    def test_all_presets_build(self):
        for name in SCENARIO_PRESETS:
            scenario = build_scenario(get_scenario(name), TINY, seed=3)
            assert len(scenario.poison_indices) > 0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")
