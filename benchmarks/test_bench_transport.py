"""Transport benchmark: bytes-on-the-wire and wall-clock per update codec.

One multi-round federated run (8 clients, 16 rounds, one pool worker) per
codec, against the **dense baseline** — what the pre-transport pipeline
shipped: the full global model pickled into every task and a full state
dict back from every client, ``2 × clients × rounds`` dense states.  The
zero-redundancy transport replaces that with version-addressed broadcasts
(full/delta/ref against each worker's cache) plus codec-encoded returns,
and this benchmark records what that buys:

* ``delta`` (lossless, asserted bit-identical to ``raw``): ≥5× fewer
  bytes on the wire than the dense baseline.

Records append to ``benchmarks/results/bench_runtime.json`` as
``workload="transport"`` rows; when the committed file already holds a
row for the same codec/shape, the lossless path must not regress its
bytes-on-wire beyond a 10% tolerance (zlib builds differ slightly across
platforms) — the CI transport-smoke job runs exactly this check.

A second workload, ``pipe_serialization``, measures the protocol-5
out-of-band pickle framing the pool pipes use against the historical
default-protocol pickling of the same ndarray payload (parity asserted
bitwise, speedup recorded).
"""

import json
import os
import pickle
import time

import numpy as np

from repro.data.dataset import ArrayDataset, FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend, dense_nbytes, usable_cpus

from repro.training import TrainConfig

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench_runtime.json"
)

NUM_CLIENTS = 8
PER_CLIENT = 64
ROUNDS = 16
CONFIG = TrainConfig(epochs=2, batch_size=16, learning_rate=0.02)
FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=8)

CODECS = ("raw", "delta")
# A conservative floor under the measured reduction (≈6.1×), leaving room
# for zlib output differences across library builds.
REDUCTION_FLOORS = {"delta": 5.0}


def _emit(record: dict) -> None:
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    records = []
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            records = json.load(handle)
    records.append(record)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(records, handle, indent=2)
    print(json.dumps(record))


def _previous_records() -> list:
    if not os.path.exists(RESULTS_PATH):
        return []
    with open(RESULTS_PATH) as handle:
        return json.load(handle)


def _build_sim(backend, codec):
    rng = np.random.default_rng(0)
    means = rng.normal(0.0, 3.0, size=(3, 1, 8, 8))
    total = NUM_CLIENTS * PER_CLIENT + 60
    labels = np.arange(total) % 3
    images = means[labels] + rng.normal(0.0, 0.5, size=(total, 1, 8, 8))
    full = ArrayDataset(images=images, labels=labels, num_classes=3, name="bench")
    clients = [
        full.subset(range(i * PER_CLIENT, (i + 1) * PER_CLIENT))
        for i in range(NUM_CLIENTS)
    ]
    fed = FederatedDataset(
        client_datasets=clients,
        test_set=full.subset(range(NUM_CLIENTS * PER_CLIENT, total)),
    ).share()
    return FederatedSimulation(
        FACTORY, fed, FedAvgAggregator(), CONFIG, seed=3, backend=backend,
        codec=codec,
    )


def _run_codec(codec):
    backend = PoolBackend(max_workers=1)
    try:
        sim = _build_sim(backend, codec)
        start = time.perf_counter()
        history = sim.run(ROUNDS)
        wall = time.perf_counter() - start
        return {
            "state": sim.server.global_state,
            "accuracies": history.accuracies,
            "rounds": history.rounds,
            "report": sim.transport_report(),
            "wall": wall,
        }
    finally:
        backend.close()


class TestTransportCodecs:
    def test_bytes_on_wire_reductions_and_lossless_parity(self):
        dense_state = dense_nbytes(FACTORY().state_dict())
        dense_baseline = 2 * NUM_CLIENTS * ROUNDS * dense_state
        previous = _previous_records()

        runs = {codec: _run_codec(codec) for codec in CODECS}

        # Lossless parity: delta reproduces raw bit for bit.
        assert runs["raw"]["accuracies"] == runs["delta"]["accuracies"]
        for key, value in runs["raw"]["state"].items():
            np.testing.assert_array_equal(value, runs["delta"]["state"][key])

        for codec in CODECS:
            report = runs[codec]["report"]
            rounds = runs[codec]["rounds"]
            # Per-round byte counts are visible on every RoundRecord.
            assert all(r.bytes_down > 0 and r.bytes_up > 0 for r in rounds)
            assert report["bytes_down"] == sum(r.bytes_down for r in rounds)
            assert report["bytes_up"] == sum(r.bytes_up for r in rounds)

            reduction = dense_baseline / report["bytes_total"]
            floor = REDUCTION_FLOORS.get(codec)
            if floor is not None:
                assert reduction >= floor, (
                    f"{codec}: expected >={floor}x bytes-on-wire reduction vs "
                    f"the dense baseline, got {reduction:.2f}x"
                )
            _emit(
                {
                    "workload": "transport",
                    "codec": codec,
                    "clients": NUM_CLIENTS,
                    "rounds": ROUNDS,
                    "backend": "pool:1",
                    "bytes_down": report["bytes_down"],
                    "bytes_up": report["bytes_up"],
                    "bytes_total": report["bytes_total"],
                    "dense_baseline_bytes": dense_baseline,
                    "reduction_vs_dense": round(reduction, 3),
                    "broadcast_full": report["broadcast_full"],
                    "broadcast_delta": report["broadcast_delta"],
                    "broadcast_ref": report["broadcast_ref"],
                    "wall_clock_s": round(runs[codec]["wall"], 4),
                    "cpus": usable_cpus(),
                }
            )

        # CI regression guard: the lossless path must not regress its
        # bytes-on-wire beyond zlib-build noise vs the recorded baseline.
        baselines = [
            record
            for record in previous
            if record.get("workload") == "transport"
            and record.get("codec") == "delta"
            and record.get("clients") == NUM_CLIENTS
            and record.get("rounds") == ROUNDS
        ]
        if baselines:
            # Anchor to the *oldest* matching record: the benchmark
            # appends on every run, so the newest one is just the last
            # measurement — comparing against it would let a slow creep
            # ratchet the baseline upward 10% at a time.  An intentional
            # >10% increase requires pruning the old records from
            # bench_runtime.json (re-baselining) in the same commit.
            recorded = baselines[0]["bytes_total"]
            measured = runs["delta"]["report"]["bytes_total"]
            assert measured <= recorded * 1.10, (
                f"delta bytes-on-wire regressed: {measured} vs recorded "
                f"baseline {recorded}"
            )


class TestPipeSerialization:
    """Default-protocol pickling vs the pool's protocol-5 oob framing.

    Models the user-space costs on each side of a pipe.  The kernel
    copies (write in, read out) are identical for both protocols and
    cancel; what differs is pickle's own array handling: the legacy path
    copies every array into the pickle stream at dumps time and out of
    it at loads time (two full copies), while the oob path emits
    zero-copy buffer views at dumps time, pays one materialisation per
    buffer on the receive side (``recv_bytes`` returning fresh bytes —
    modelled here with ``bytes(view)``) and reconstructs arrays as
    zero-copy views over those.
    """

    REPEATS = 20

    def test_out_of_band_parity_and_speedup(self):
        rng = np.random.default_rng(7)
        payload = {
            f"layer{i}.weight": rng.normal(0.0, 0.5, size=(512, 512))
            for i in range(8)
        }  # ~16 MB of float64 — the shape of a big TrainResult state

        start = time.perf_counter()
        for _ in range(self.REPEATS):
            legacy = pickle.loads(pickle.dumps(payload, protocol=pickle.DEFAULT_PROTOCOL))
        legacy_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(self.REPEATS):
            buffers = []
            head = pickle.dumps(
                payload,
                protocol=pickle.HIGHEST_PROTOCOL,
                buffer_callback=buffers.append,
            )
            received = [bytes(buf.raw()) for buf in buffers]  # recv_bytes copy
            oob = pickle.loads(head, buffers=received)
        oob_seconds = time.perf_counter() - start

        for key, value in payload.items():
            np.testing.assert_array_equal(legacy[key], value)
            np.testing.assert_array_equal(oob[key], value)

        speedup = legacy_seconds / oob_seconds
        _emit(
            {
                "workload": "pipe_serialization",
                "payload_mb": round(
                    sum(v.nbytes for v in payload.values()) / (1024 * 1024), 1
                ),
                "repeats": self.REPEATS,
                "legacy_protocol": pickle.DEFAULT_PROTOCOL,
                "oob_protocol": pickle.HIGHEST_PROTOCOL,
                "legacy_s": round(legacy_seconds, 4),
                "oob_s": round(oob_seconds, 4),
                "speedup": round(speedup, 3),
                "cpus": usable_cpus(),
            }
        )
