"""Error feedback in the update-codec layer (``ef:<lossy-spec>``).

``ef:<lossy>`` is the inner codec's class with the residual term of its
one encode switched on: the wire format stays the inner codec's, the residual
is client-side state threaded through ``TrainTask.residual`` /
``TrainResult.residual``, and accumulated feedback pulls lossy training
back toward the raw trajectory.
"""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import RegistryModelFactory
from repro.runtime.codec import QuantCodec, TopKCodec, dense_nbytes, get_codec
from repro.training import TrainConfig

from ..conftest import make_blob_federation


def make_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer0.weight": rng.normal(0.0, 0.5, size=(16, 9)),
        "layer0.bias": rng.normal(0.0, 0.5, size=16),
        "counter": np.array([7], dtype=np.int64),  # integer buffer
    }


def drift(state, scale, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for key, value in state.items():
        if np.issubdtype(value.dtype, np.floating):
            out[key] = value + rng.normal(0.0, scale, size=value.shape)
        else:
            out[key] = value.copy()
    return out


class TestRegistry:
    def test_ef_wraps_lossy_codecs(self):
        codec = get_codec("ef:topk:0.1")
        assert isinstance(codec, TopKCodec) and codec.feedback
        assert codec.spec == "ef:topk:0.1"
        quant = get_codec("ef:quant:8")
        assert isinstance(quant, QuantCodec) and quant.feedback
        # Enabling feedback builds a new codec; the shared inner one is as it was.
        assert not get_codec("topk:0.1").feedback
        assert get_codec("topk:0.1").spec == "topk:0.1"

    def test_ef_needs_an_argument(self):
        with pytest.raises(ValueError, match="ef"):
            get_codec("ef")

    @pytest.mark.parametrize("inner", ["raw", "delta"])
    def test_lossless_inner_rejected(self, inner):
        with pytest.raises(ValueError, match="lossy"):
            get_codec(f"ef:{inner}")


class TestEncodeDecode:
    def test_residual_free_encode_equals_inner_codec(self):
        basis = make_state(0)
        state = drift(basis, 1e-2, seed=1)
        ef = get_codec("ef:topk:0.25")
        inner = get_codec("topk:0.25")
        from_ef = ef.decode(ef.encode(state, basis), basis)
        from_inner = inner.decode(inner.encode(state, basis), basis)
        assert set(from_ef) == set(from_inner)
        for key in from_ef:
            np.testing.assert_array_equal(from_ef[key], from_inner[key])

    def test_integer_buffers_travel_exact(self):
        basis = make_state(0)
        state = drift(basis, 1e-2, seed=2)
        state["counter"] = state["counter"] + 3
        ef = get_codec("ef:topk:0.25")
        decoded = ef.decode(ef.encode(state, basis), basis)
        np.testing.assert_array_equal(decoded["counter"], state["counter"])
        assert decoded["counter"].dtype == np.int64

    def test_feedback_flushes_persistently_dropped_mass(self):
        """A persistent small-coordinate signal: plain top-k drops the
        same coordinates every round (error grows without bound); with
        feedback their residual accumulates until it crosses the top-k
        threshold and is flushed, so the decoded trajectory tracks the
        true one."""
        basis = make_state(0)
        step = {
            key: np.random.default_rng(40).normal(0.0, 1e-2, size=value.shape)
            for key, value in basis.items()
            if np.issubdtype(value.dtype, np.floating)
        }

        def advance(state):
            out = {k: v + step[k] if k in step else v.copy()
                   for k, v in state.items()}
            return out

        ef = get_codec("ef:topk:0.1")
        plain = get_codec("topk:0.1")
        true_state = basis
        ef_decoded, plain_decoded = basis, basis
        residual = None
        for _ in range(6):
            true_state = advance(true_state)
            ef_target = {
                key: ef_decoded[key] + step.get(key, 0) for key in basis
            }
            encoded, residual = ef.encode_with_residual(
                ef_target, ef_decoded, residual
            )
            ef_decoded = ef.decode(encoded, ef_decoded)
            plain_target = {
                key: plain_decoded[key] + step.get(key, 0) for key in basis
            }
            plain_decoded = plain.decode(
                plain.encode(plain_target, plain_decoded), plain_decoded
            )
        assert residual is not None and set(residual) <= set(basis)
        for key in step:
            ef_err = np.abs(ef_decoded[key] - true_state[key]).sum()
            plain_err = np.abs(plain_decoded[key] - true_state[key]).sum()
            assert ef_err < plain_err

    def test_structure_mismatch_resets_feedback_silently(self):
        basis = make_state(0)
        state = drift(basis, 1e-2, seed=5)
        ef = get_codec("ef:topk:0.25")
        stale = {"no.such.key": np.ones(4)}
        encoded, residual = ef.encode_with_residual(state, basis, stale)
        fresh, _ = ef.encode_with_residual(state, basis, None)
        decoded = ef.decode(encoded, basis)
        fresh_decoded = ef.decode(fresh, basis)
        for key in decoded:
            np.testing.assert_array_equal(decoded[key], fresh_decoded[key])
        assert residual is not None and set(stale) != set(residual)

    def test_wire_bytes_match_the_inner_codec(self):
        basis = make_state(0)
        state = drift(basis, 1e-2, seed=6)
        ef = get_codec("ef:quant:8").encode(state, basis)
        inner = get_codec("quant:8").encode(state, basis)
        assert ef.nbytes == inner.nbytes
        assert ef.nbytes < dense_nbytes(state)


FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
ROUNDS = 4


def run_fed(codec):
    clients, test = make_blob_federation(5, per_client=24, test_size=48, seed=0)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    sim = FederatedSimulation(
        FACTORY, fed, FedAvgAggregator(),
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
        seed=0, codec=codec,
    )
    history = sim.run(ROUNDS)
    return sim, history


class TestClientPlumbing:
    def test_residual_lives_on_the_client_between_rounds(self):
        sim, _ = run_fed("ef:topk:0.2")
        for client in sim.clients:
            assert client.update_residual is not None
            model_keys = set(client.model.state_dict())
            assert set(client.update_residual) <= model_keys

    def test_raw_clients_carry_no_residual(self):
        sim, _ = run_fed("raw")
        assert all(client.update_residual is None for client in sim.clients)

    def test_off_by_default_and_deterministic(self):
        _, first = run_fed("ef:topk:0.2")
        _, second = run_fed("ef:topk:0.2")
        assert first.accuracies == second.accuracies

    def test_ef_diverges_from_plain_topk_once_feedback_engages(self):
        # Round 1 is residual-free (identical to plain top-k); from round
        # 2 the carried residual changes which coordinates survive.
        ef_sim, _ = run_fed("ef:topk:0.2")
        plain_sim, _ = run_fed("topk:0.2")
        ef_state = ef_sim.server.global_state
        plain_state = plain_sim.server.global_state
        assert any(
            not np.array_equal(ef_state[key], plain_state[key])
            for key in ef_state
        )

    def test_feedback_closes_the_gap_toward_raw(self):
        """The paper-standard EF property: accumulated feedback pulls the
        lossy trajectory back toward the uncompressed one."""
        raw_sim, raw_history = run_fed("raw")
        ef_sim, ef_history = run_fed("ef:topk:0.2")
        plain_sim, plain_history = run_fed("topk:0.2")
        raw_state = raw_sim.server.global_state

        def distance(state):
            return sum(
                float(np.abs(state[key] - raw_state[key]).sum())
                for key in raw_state
            )

        assert distance(ef_sim.server.global_state) < distance(
            plain_sim.server.global_state
        )
        raw_acc = raw_history.final_accuracy
        assert abs(ef_history.final_accuracy - raw_acc) <= abs(
            plain_history.final_accuracy - raw_acc
        )
