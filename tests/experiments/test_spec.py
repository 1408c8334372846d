"""The declarative scenario/experiment spec layer."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.data.dataset import SharedArrayDataset
from repro.experiments import (
    SMOKE,
    fig5_backdoor,
    fig6_shards,
    fig7_shard_deletion,
    fig8_heterogeneous,
    fig9_iid,
)
from repro.experiments.common import backdoor_spec
from repro.experiments.spec import (
    AttackSpec,
    DatasetSpec,
    DeletionSpec,
    FederationSpec,
    PartitionSpec,
    ScenarioSpec,
    build_scenario,
    spec_hash,
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


class TestRoundTrip:
    def test_scenario_json_round_trip(self):
        spec = _full_spec()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_default_scenario_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "exp",
        [
            fig5_backdoor.spec_for("mnist"),
            fig6_shards.spec_for(),
            fig7_shard_deletion.spec_for(),
            fig8_heterogeneous.spec_for(),
            fig9_iid.spec_for(),
        ],
        ids=["fig5", "fig6", "fig7", "fig8", "fig9"],
    )
    def test_experiment_json_round_trip(self, exp):
        """A paper spec survives JSON: its scenario rebuilds equal and its
        payload hashes to the stamped hash (tuples canonicalised to lists)."""
        payload = json.loads(json.dumps(exp.to_dict()))
        assert ScenarioSpec.from_dict(payload["scenario"]) == exp.scenario
        assert spec_hash(payload) == exp.hash()

    def test_hash_changes_with_content(self):
        spec = _full_spec()
        assert spec.hash() != spec.with_overrides(**{"deletion.rate": 0.08}).hash()

    def test_hash_stable_across_processes(self):
        """The spec hash must not depend on process state (PYTHONHASHSEED)."""
        spec = backdoor_spec("mnist", 0.06)
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
        # Knobs with one value left are not fields.
        for path, value in [
            ("federation.compression.codec", "delta"),
            ("federation.vectorize", True),
            ("deletion.selector", "random"),
            ("deletion.target_class", 3),
        ]:
            with pytest.raises(ValueError, match="unknown spec path"):
                _full_spec().with_overrides(**{path: value})


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
            "num_clients", "aggregator", "share_datasets",
        ]


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

    def test_deletion_requests_shape(self):
        scenario = build_scenario(backdoor_spec("mnist", 0.06), TINY, seed=1)
        (request,) = scenario.deletion_requests()
        assert request.client_id == 0
        np.testing.assert_array_equal(
            np.asarray(request.indices), scenario.poison_indices
        )

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
