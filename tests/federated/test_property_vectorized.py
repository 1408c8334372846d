"""Property tests: the vectorize=True contract over sampled cohorts.

For any sampled cohort shape (member count, member dataset sizes),
train config (batch size, epochs, momentum, grad_clip, hard loss),
architecture, and data dtype, turning ``vectorize=True`` on must NEVER
raise and must leave every observable bit-identical to the per-client
twin.  When the cohort is ineligible the round falls back per client
**with a recorded reason** — fallbacks are allowed, silent or crashing
behaviour is not.

The scalar and the stacked path share one epoch loop
(:func:`repro.training.trainer.run_epochs`), so the second property pins
both against the loop as it stood before the merge
(``tests/reference_loops.py``).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.data import FederatedDataset  # noqa: E402
from repro.data.dataset import ArrayDataset  # noqa: E402
from repro.federated import (  # noqa: E402
    FedAvgAggregator,
    FederatedSimulation,
    VectorizedCohort,
)
from repro.nn.layers import Conv2d, Flatten, Linear, Sequential  # noqa: E402
from repro.nn.losses import HARD_LOSSES  # noqa: E402
from repro.nn.models import MLP  # noqa: E402
from repro.training import TrainConfig, train  # noqa: E402

from ..conftest import generated, make_blobs  # noqa: E402
from ..reference_loops import reference_train  # noqa: E402


def mlp_factory():
    return MLP(16, 3, np.random.default_rng(42))


def conv_factory():
    rng = np.random.default_rng(42)
    return Sequential(
        Conv2d(1, 3, 3, rng, padding=1), Flatten(), Linear(48, 3, rng)
    )


FACTORIES = {"mlp": mlp_factory, "conv": conv_factory}

cohorts = st.fixed_dictionaries(
    {
        "sizes": st.lists(st.integers(8, 24), min_size=1, max_size=4),
        "batch_size": st.sampled_from([4, 8, 10]),
        "epochs": st.integers(1, 2),
        "momentum": st.sampled_from([0.0, 0.9]),
        "grad_clip": st.sampled_from([0.0, 1.0]),
        "loss": st.sampled_from(sorted(HARD_LOSSES)),
        "arch": st.sampled_from(sorted(FACTORIES)),
        "dtype": st.sampled_from(["float64", "float32", "mixed"]),
    }
)


def build_cohort(params):
    """(model factory, member datasets, held-out test set, train config)."""
    sizes = params["sizes"]
    total = sum(sizes) + 24
    ds = make_blobs(num_samples=total, num_classes=3, shape=(1, 4, 4),
                    seed=3, separation=1.2, noise=1.0)
    clients, start = [], 0
    for index, size in enumerate(sizes):
        subset = ds.subset(np.arange(start, start + size))
        if params["dtype"] == "float32" or (
            params["dtype"] == "mixed" and index == 0
        ):
            subset = ArrayDataset(
                images=subset.images, labels=subset.labels,
                num_classes=subset.num_classes, name=subset.name,
                dtype=np.float32,
            )
        clients.append(subset)
        start += size
    factory = FACTORIES[params["arch"]]
    if params["dtype"] == "float32":
        base = factory
        factory = lambda: base().astype(np.float32)  # noqa: E731
    config = TrainConfig(
        epochs=params["epochs"], batch_size=params["batch_size"],
        learning_rate=0.1, momentum=params["momentum"],
        grad_clip=params["grad_clip"], loss=params["loss"],
    )
    return factory, clients, ds.subset(np.arange(start, total)), config


def build_sim(params, vectorize):
    factory, clients, test_set, config = build_cohort(params)
    fed = FederatedDataset(client_datasets=clients, test_set=test_set)
    return FederatedSimulation(
        factory, fed, FedAvgAggregator(), config, seed=0, vectorize=vectorize,
    )


@generated(25)
@given(cohorts)
def test_vectorize_is_parity_or_recorded_fallback(params):
    ref_sim = build_sim(params, vectorize=False)
    ref_history = ref_sim.run(1)

    vec_sim = build_sim(params, vectorize=True)  # must never raise
    history = vec_sim.run(1)

    assert history.accuracies == ref_history.accuracies
    ref_state = ref_sim.server.global_state
    state = vec_sim.server.global_state
    assert set(state) == set(ref_state)
    for key in state:
        assert state[key].dtype == ref_state[key].dtype
        np.testing.assert_array_equal(state[key], ref_state[key])
    for a, b in zip(ref_sim.clients, vec_sim.clients):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    report = vec_sim.vectorize_report()
    assert report["requested"] is True
    if report["rounds_vectorized"] == 0:
        # Nothing fused this round: the fallback must be on the record.
        assert report["rounds_fallback"] == 1
        assert report["fallback_reasons"]
    else:
        assert sum(report["chunks"].values()) > 0


@st.composite
def lockstep_cohorts(draw):
    """Cohorts :class:`VectorizedCohort` accepts directly: one dtype,
    equal step counts — ragged final batches only on the MLP (Conv2d
    cannot take zero-padded rows)."""
    params = draw(cohorts)
    steps = draw(st.integers(1, 3))
    top = steps * params["batch_size"]
    low = top if params["arch"] == "conv" else top - params["batch_size"] + 1
    params["sizes"] = [
        draw(st.integers(low, top)) for _ in params["sizes"]
    ]
    params["dtype"] = draw(st.sampled_from(["float64", "float32"]))
    return params


@generated(25)
@given(lockstep_cohorts())
def test_cohort_and_scalar_train_match_the_reference_loop(params):
    """``VectorizedCohort.train`` ≡ per-member ``train`` ≡ the pre-merge
    loop: states, loss histories and generator positions, bit for bit —
    K = 1 (a stack of one) included."""
    factory, datasets, _, config = build_cohort(params)
    k = len(datasets)

    def run(train_fn):
        models = [factory() for _ in range(k)]
        rngs = [np.random.default_rng(100 + index) for index in range(k)]
        histories = [
            train_fn(model, dataset, config, rng)
            for model, dataset, rng in zip(models, datasets, rngs)
        ]
        return models, rngs, histories

    want_models, want_rngs, want_histories = run(reference_train)
    scalar = run(train)
    models = [factory() for _ in range(k)]
    rngs = [np.random.default_rng(100 + index) for index in range(k)]
    stacked = models, rngs, VectorizedCohort(models, datasets, rngs).train(config)

    for got_models, got_rngs, got_histories in (scalar, stacked):
        for index in range(k):
            want_state = want_models[index].state_dict()
            got_state = got_models[index].state_dict()
            assert set(got_state) == set(want_state)
            for key, value in want_state.items():
                assert got_state[key].dtype == value.dtype
                assert got_state[key].tobytes() == value.tobytes()
            assert got_histories[index].epochs == want_histories[index].epochs
            assert (
                got_rngs[index].bit_generator.state
                == want_rngs[index].bit_generator.state
            )
