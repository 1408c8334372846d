"""Isolated per-layer measurements: direct calls on fixed small payloads.

These cover code that runs inside workers (where the span wrappers do not
reach) and single-layer costs no span isolates.  Each probe promises a set
of metric names; one that raises — say after a refactor moved its entry
point — yields ``None`` for those names with the reason, and never fails
the run.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

REPS = 7


def _median_time(call: Callable[[], object], reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_nn_batch() -> Dict[str, float]:
    """Forward, backward and optimizer step of one LeNet-5 batch (50 x 28x28)."""
    from repro.nn import Tensor
    from repro.nn.losses import get_hard_loss
    from repro.nn.models import RegistryModelFactory
    from repro.nn.optim import SGD

    rng = np.random.default_rng(0)
    images = rng.standard_normal((50, 1, 28, 28))
    labels = rng.integers(0, 10, 50)
    model = RegistryModelFactory(name="lenet5", num_classes=10, in_channels=1, image_size=28)()
    model.train()
    loss_fn = get_hard_loss("cross_entropy")
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    forward, backward, step = [], [], []
    for _ in range(REPS):
        optimizer.zero_grad()
        t0 = time.perf_counter()
        loss = loss_fn(model(Tensor(images)), labels)
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        optimizer.step()
        t3 = time.perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
        step.append(t3 - t2)
    return {
        "nn.forward_s": statistics.median(forward),
        "nn.backward_s": statistics.median(backward),
        "nn.optim_step_s": statistics.median(step),
    }


def probe_vmap() -> Dict[str, float]:
    """One forward+backward of K=32 8x8 MLPs on batch 8: stacked vs scalar."""
    from repro.nn import Tensor
    from repro.nn.losses import get_hard_loss
    from repro.nn.models import RegistryModelFactory
    from repro.nn.vmap import get_stacked_loss, stack_modules

    k, batch = 32, 8
    rng = np.random.default_rng(0)
    images = rng.standard_normal((k, batch, 1, 8, 8))
    labels = rng.integers(0, 3, (k, batch))
    factory = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=8)
    models = [factory() for _ in range(k)]
    for model in models:
        model.train()
    stacked = stack_modules([factory() for _ in range(k)])
    stacked.train()
    stacked_loss = get_stacked_loss("cross_entropy")
    scalar_loss = get_hard_loss("cross_entropy")

    def vmapped():
        stacked.zero_grad()
        stacked_loss(stacked(Tensor(images)), labels).sum().backward()

    def scalar():
        for index, model in enumerate(models):
            model.zero_grad()
            scalar_loss(model(Tensor(images[index])), labels[index]).backward()

    return {
        "nn.vmap_fwd_bwd_s": _median_time(vmapped),
        "nn.scalar_fwd_bwd_s": _median_time(scalar),
    }


def probe_data() -> Dict[str, float]:
    """Synthesis, shared-memory re-housing and one pass of batch iteration."""
    from repro.data import make_dataset
    from repro.data.loader import DataLoader

    train, _ = make_dataset("mnist", 250, 200, seed=0)

    def share():
        train.share().close()

    def iterate():
        for _ in DataLoader(train, batch_size=8, shuffle=True, rng=np.random.default_rng(0)):
            pass

    return {
        "data.synth_s": _median_time(lambda: make_dataset("mnist", 250, 200, seed=0), reps=3),
        "data.share_s": _median_time(share),
        "data.batch_iter_s": _median_time(iterate),
    }


def probe_teacher() -> Dict[str, float]:
    """The Goldfish teacher's no-grad forward on one retain batch of 8."""
    from repro.nn import Tensor, no_grad
    from repro.nn.models import RegistryModelFactory

    images = np.random.default_rng(0).standard_normal((8, 1, 28, 28))
    teacher = RegistryModelFactory(name="lenet5", num_classes=10, in_channels=1, image_size=28)()
    teacher.eval()

    def forward():
        with no_grad():
            teacher(Tensor(images))

    return {"unlearning.teacher_forward_s": _median_time(forward)}


def probe_runtime() -> Dict[str, float]:
    """Pickling one real train task, and the delta codec on a trained state."""
    from repro.runtime import get_codec
    from repro.training import TrainConfig

    from .workloads import blob_simulation

    config = TrainConfig(epochs=1, batch_size=16, learning_rate=0.02)
    sim = blob_simulation(0, 8, 96, 60, 16, 3.0, config, "serial", codec="delta")
    sim.run_round(0)
    basis = sim.server.global_state
    sim.server.broadcast(sim.clients)
    task = sim.clients[0].make_train_task(
        config, sim.model_factory, codec="delta", model_version=sim.broadcast_version()
    )
    sim.run_round(1)
    trained = sim.clients[0].model.state_dict()
    codec = get_codec("delta")
    encoded = codec.encode(trained, basis)
    return {
        "runtime.task_pickle_s": _median_time(lambda: pickle.dumps(task, protocol=5)),
        "runtime.task_pickle_bytes": float(len(pickle.dumps(task, protocol=5))),
        "runtime.codec_encode_s": _median_time(lambda: codec.encode(trained, basis)),
        "runtime.codec_decode_s": _median_time(lambda: codec.decode(encoded, basis)),
    }


def probe_frame() -> Dict[str, float]:
    """One small message there and back over a loopback ``SocketChannel`` pair."""
    from repro.cluster.wire import SocketChannel, connect, listen, recv_message, send_message

    listener = listen()
    try:
        near = connect(listener.getsockname())
        accepted, _ = listener.accept()
        far = SocketChannel(accepted)
        try:
            def roundtrip():
                send_message(near, ("ping", 1))
                send_message(far, recv_message(far, timeout=5.0)[0])
                recv_message(near, timeout=5.0)

            return {"cluster.frame_roundtrip_s": _median_time(roundtrip, reps=25)}
        finally:
            near.close()
            far.close()
    finally:
        listener.close()


PROBES: Tuple[Tuple[Tuple[str, ...], Callable[[], Dict[str, float]]], ...] = (
    (("nn.forward_s", "nn.backward_s", "nn.optim_step_s"), probe_nn_batch),
    (("nn.vmap_fwd_bwd_s", "nn.scalar_fwd_bwd_s"), probe_vmap),
    (("data.synth_s", "data.share_s", "data.batch_iter_s"), probe_data),
    (("unlearning.teacher_forward_s",), probe_teacher),
    (("runtime.task_pickle_s", "runtime.task_pickle_bytes",
      "runtime.codec_encode_s", "runtime.codec_decode_s"), probe_runtime),
    (("cluster.frame_roundtrip_s",), probe_frame),
)


def run_probes() -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """``(values, reasons)``: a failed probe's names map to ``None`` + why."""
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    for names, probe in PROBES:
        try:
            measured = probe()
        except Exception as error:  # a probe must never fail the run
            measured = {}
            for name in names:
                reasons[name] = f"{type(error).__name__}: {error}"
        for name in names:
            values[name] = measured.get(name)
            if values[name] is None and name not in reasons:
                reasons[name] = "probe returned no value"
    return values, reasons
