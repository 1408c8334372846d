"""Finiteness of the unlearning hyper-parameters.

Goldfish's loss weights and temperatures, the early-stop threshold and
the baselines' knobs are range-checked; NaN fails every comparison, so
each check must test finiteness as well or a NaN slips through (a NaN
temperature turns every distillation loss into NaN).  B2's knobs are
checked before its flow resets the global model, and by its registry
entry at construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import MLP
from repro.training import TrainConfig
from repro.unlearning import (
    EarlyStopConfig,
    GoldfishLossConfig,
    SisaConfig,
    adaptive_temperature,
    federated_rapid_retrain,
    make_unlearner,
)
from repro.unlearning.baselines import (
    FedEraserConfig,
    IncompetentTeacherConfig,
    RapidRetrainer,
)

from ..conftest import HYPER_VALUES, NON_FINITE, generated, make_blob_federation

POSITIVE = lambda v: v > 0
NON_NEGATIVE = lambda v: v >= 0
MOMENTUM = lambda v: 0 <= v < 1

# (name, call that validates the value, accepted range, a value in it)
HYPER_PARAMETERS = [
    ("GoldfishLossConfig.temperature", lambda v: GoldfishLossConfig(temperature=v), POSITIVE, 3.0),
    ("GoldfishLossConfig.mu_c", lambda v: GoldfishLossConfig(mu_c=v), NON_NEGATIVE, 0.25),
    ("GoldfishLossConfig.mu_d", lambda v: GoldfishLossConfig(mu_d=v), NON_NEGATIVE, 1.0),
    ("GoldfishLossConfig.forget_scale", lambda v: GoldfishLossConfig(forget_scale=v), NON_NEGATIVE, 0.1),
    ("GoldfishLossConfig.forget_cap", lambda v: GoldfishLossConfig(forget_cap=v), POSITIVE, 2.3),
    ("adaptive_temperature.base_temperature", lambda v: adaptive_temperature(v, 80, 20), POSITIVE, 3.0),
    ("adaptive_temperature.alpha", lambda v: adaptive_temperature(3.0, 80, 20, alpha=v), POSITIVE, math.e),
    ("EarlyStopConfig.delta", lambda v: EarlyStopConfig(delta=v), NON_NEGATIVE, 0.05),
    ("IncompetentTeacherConfig.beta", lambda v: IncompetentTeacherConfig(beta=v), lambda v: 0 <= v <= 1, 0.5),
    ("IncompetentTeacherConfig.temperature", lambda v: IncompetentTeacherConfig(temperature=v), POSITIVE, 1.0),
    ("RapidRetrainer.lr_scale", lambda v: RapidRetrainer(lr_scale=v), POSITIVE, 0.1),
    ("FedEraserConfig.learning_rate", lambda v: FedEraserConfig(learning_rate=v), POSITIVE, 0.01),
    ("FedEraserConfig.momentum", lambda v: FedEraserConfig(momentum=v), MOMENTUM, 0.9),
    ("SisaConfig.learning_rate", lambda v: SisaConfig(learning_rate=v), POSITIVE, 0.01),
    ("SisaConfig.momentum", lambda v: SisaConfig(momentum=v), MOMENTUM, 0.9),
]


class TestHyperParametersAreFinite:
    @generated(300)
    @given(
        validator=st.sampled_from(HYPER_PARAMETERS),
        value=HYPER_VALUES,
    )
    def test_accepted_values_are_finite_and_in_range(self, validator, value):
        """Each validator either accepts a finite value in its range or
        raises ``ValueError``."""
        name, validate, in_range, _ = validator
        try:
            validate(value)
        except ValueError:
            return
        assert math.isfinite(value) and in_range(value), (name, value)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("validator", HYPER_PARAMETERS, ids=lambda v: v[0])
    def test_non_finite_rejected(self, validator, value):
        name, validate, _, typical = validator
        validate(typical)
        with pytest.raises(ValueError):
            validate(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SisaConfig(batch_size=0),
        lambda: SisaConfig(batch_size=-1),
        lambda: SisaConfig(momentum=-1.0),
        lambda: SisaConfig(momentum=1.0),
        lambda: SisaConfig(learning_rate=0.0),
        lambda: SisaConfig(learning_rate=-0.01),
        lambda: FedEraserConfig(batch_size=0),
        lambda: FedEraserConfig(batch_size=-1),
        lambda: FedEraserConfig(momentum=-1.0),
        lambda: FedEraserConfig(momentum=1.0),
        lambda: FedEraserConfig(learning_rate=-0.01),
    ],
    ids=[
        "SisaConfig.batch_size=0", "SisaConfig.batch_size=-1",
        "SisaConfig.momentum=-1", "SisaConfig.momentum=1",
        "SisaConfig.learning_rate=0", "SisaConfig.learning_rate=-0.01",
        "FedEraserConfig.batch_size=0", "FedEraserConfig.batch_size=-1",
        "FedEraserConfig.momentum=-1", "FedEraserConfig.momentum=1",
        "FedEraserConfig.learning_rate=-0.01",
    ],
)
def test_out_of_range_training_values_rejected_at_construction(build):
    """A config that cannot train fails when it is built, not at the
    first ``train_config()`` (a SISA ensemble rebuilt from a manifest
    would otherwise fail only at its first deletion)."""
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "config, expected",
    [
        (SisaConfig(momentum=0.0), {"momentum": 0.0}),
        (SisaConfig(batch_size=1), {"batch_size": 1}),
        (SisaConfig(epochs_per_slice=3, learning_rate=5e-324), {"epochs": 3, "learning_rate": 5e-324}),
        (FedEraserConfig(momentum=0.0), {"momentum": 0.0}),
        (FedEraserConfig(batch_size=1), {"batch_size": 1}),
        (FedEraserConfig(calibration_epochs=4, learning_rate=5e-324), {"epochs": 4, "learning_rate": 5e-324}),
    ],
    ids=[
        "SisaConfig.momentum=0", "SisaConfig.batch_size=1", "SisaConfig.smallest_lr",
        "FedEraserConfig.momentum=0", "FedEraserConfig.batch_size=1",
        "FedEraserConfig.smallest_lr",
    ],
)
def test_boundary_training_values_build_and_reach_the_train_config(config, expected):
    """The construction-time check accepts the edges ``TrainConfig``
    accepts, and ``train_config()`` carries them through unchanged."""
    train = config.train_config()
    for name, value in expected.items():
        assert getattr(train, name) == value


BAD_B2_OPTIONS = [
    {"rho": 1.5},
    {"damping": 0.0},
    {"damping": math.nan},
    {"lr_scale": -1.0},
    {"lr_scale": math.nan},
]
BAD_B2_IDS = ["rho=1.5", "damping=0", "damping=nan", "lr_scale=-1", "lr_scale=nan"]
B2_TRAIN = TrainConfig(epochs=1, batch_size=10, learning_rate=0.1)


def pretrained_sim():
    clients, test = make_blob_federation(2, per_client=20, test_size=20, seed=0)
    sim = FederatedSimulation(
        lambda: MLP(16, 3, np.random.default_rng(42)),
        FederatedDataset(client_datasets=clients, test_set=test),
        FedAvgAggregator(), B2_TRAIN, seed=0,
    )
    sim.run(1)
    sim.clients[0].request_deletion(np.arange(3))
    return sim


@pytest.mark.parametrize("options", BAD_B2_OPTIONS, ids=BAD_B2_IDS)
def test_bad_b2_options_fail_before_the_global_model_is_reset(options):
    """B2 reinitialises the global model to ω^0 first thing; a value it
    cannot train with must fail before that, not inside the first task."""
    sim = pretrained_sim()
    before = sim.server.global_state
    with pytest.raises(ValueError):
        federated_rapid_retrain(sim, B2_TRAIN, 1, **options)
    after = sim.server.global_state
    assert set(after) == set(before)
    for key, value in before.items():
        assert after[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("options", BAD_B2_OPTIONS, ids=BAD_B2_IDS)
def test_b2_registry_entry_rejects_bad_options_at_construction(options):
    with pytest.raises(ValueError):
        make_unlearner("b2", B2_TRAIN, 1, **options)
