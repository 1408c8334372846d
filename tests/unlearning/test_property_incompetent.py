"""Property test: B3 is a step over the one epoch loop, bit for bit.

``IncompetentTeacherUnlearner.unlearn`` runs its dual-teacher step inside
``repro.training.trainer.run_epochs``.  Its own epoch loop as it stood
before that merge is kept verbatim in ``tests/reference_loops.py``; on
float64 data (where the dtype cast is a no-op) the two must agree on the
student's state, the epoch losses and the generator's position after the
run, bit for bit, over generated retain / forget sizes, batch sizes,
epochs, mixture weights, temperatures and optimizer knobs.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.nn.models import MLP
from repro.training import TrainConfig
from repro.unlearning import IncompetentTeacherConfig, IncompetentTeacherUnlearner

from ..conftest import generated, make_blobs
from ..reference_loops import reference_incompetent_unlearn


def model(seed):
    return MLP(16, 3, np.random.default_rng(seed))


@st.composite
def b3_runs(draw):
    return {
        "retain": draw(st.integers(1, 30)),
        "forget": draw(st.integers(1, 12)),
        "batch_size": draw(st.sampled_from([3, 4, 8, 10])),
        "epochs": draw(st.integers(0, 3)),
        "beta": draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        "temperature": draw(st.sampled_from([1.0, 2.5])),
        "momentum": draw(st.sampled_from([0.0, 0.9])),
        "weight_decay": draw(st.sampled_from([0.0, 1e-3])),
        "grad_clip": draw(st.sampled_from([0.0, 0.5])),
        "seed": draw(st.integers(0, 2**16)),
    }


@generated(30)
@given(b3_runs())
def test_b3_matches_its_pre_merge_loop(params):
    data = make_blobs(num_samples=params["retain"] + params["forget"], num_classes=3,
                      shape=(1, 4, 4), seed=3, separation=1.2, noise=1.0)
    forget_set = data.subset(np.arange(params["forget"]))
    retain_set = data.subset(np.arange(params["forget"], len(data)))
    config = IncompetentTeacherConfig(
        beta=params["beta"],
        temperature=params["temperature"],
        train=TrainConfig(
            epochs=params["epochs"], batch_size=params["batch_size"],
            learning_rate=0.1, momentum=params["momentum"],
            weight_decay=params["weight_decay"], grad_clip=params["grad_clip"],
        ),
    )

    def run(unlearn):
        student = model(7)  # B3 starts from the original model
        rng = np.random.default_rng(params["seed"])
        result = unlearn(student, model(7), model(99), retain_set, forget_set, rng)
        return student, rng, result

    want_student, want_rng, want = run(
        lambda *args: reference_incompetent_unlearn(config, *args)
    )
    got_student, got_rng, got = run(IncompetentTeacherUnlearner(config).unlearn)
    assert got.epochs_run == want.epochs_run == params["epochs"]
    assert got.epoch_losses == want.epoch_losses
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    got_state = got_student.state_dict()
    for key, value in want_student.state_dict().items():
        assert got_state[key].dtype == value.dtype
        assert got_state[key].tobytes() == value.tobytes()
