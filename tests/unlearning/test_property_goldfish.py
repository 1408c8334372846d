"""Property test: one Goldfish loop behind the scalar and the stacked path.

``GoldfishUnlearner.unlearn`` (one student, native layout) and
``_GoldfishClientTask.run_stack`` (K students, one stacked graph) both
run ``GoldfishUnlearner.run_members``.  One list of tasks is drawn per
example — member count, retain sizes, forget sets (none / equal /
unequal), adaptive temperature, hard loss, gradient clipping, data
dtype, carried logits — and run three ways: ``task.run()`` per member,
``fuse(tasks).run()`` as one stack, and the loop as it stood before the
merge (``tests/reference_loops.py``).  All three must agree: student
states, epochs run, generator positions and the teacher logits handed
back, bit for bit.  Early stopping is a lone-member feature, so it is
drawn for K = 1 only, where the per-epoch losses and the stop decision
must equal the reference's.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data.dataset import ArrayDataset
from repro.federated.vectorized import fuse
from repro.nn.losses import HARD_LOSSES
from repro.nn.models import MLP
from repro.runtime.task import capture_rng, restore_rng
from repro.training import TrainConfig
from repro.unlearning import (
    EarlyStopConfig,
    GoldfishConfig,
    GoldfishLossConfig,
    GoldfishUnlearner,
)
from repro.unlearning.protocols import _GoldfishClientTask

from ..conftest import generated, make_blobs
from ..reference_loops import reference_unlearn


def factory():
    return MLP(16, 3, np.random.default_rng(42))


def teacher_state():
    return MLP(16, 3, np.random.default_rng(7)).state_dict()


@st.composite
def goldfish_cohorts(draw):
    batch_size = draw(st.sampled_from([4, 8, 10]))
    steps = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    top = steps * batch_size
    retain = [draw(st.integers(top - batch_size + 1, top)) for _ in range(k)]
    forget_kind = draw(st.sampled_from(["none", "equal", "unequal"]))
    if forget_kind == "none":
        forget = [0] * k
    elif forget_kind == "equal":
        forget = [draw(st.integers(1, 12))] * k
    else:
        forget = [draw(st.integers(1, 12)) for _ in range(k)]
    return {
        "retain": retain,
        "forget": forget,
        "batch_size": batch_size,
        "epochs": draw(st.integers(1, 3)),
        "momentum": draw(st.sampled_from([0.0, 0.9])),
        "grad_clip": draw(st.sampled_from([0.0, 0.5])),
        "hard_loss": draw(st.sampled_from(sorted(HARD_LOSSES))),
        "adaptive": draw(st.booleans()),
        # Eq. 7 threshold, None = stopper off; tight, loose and in between,
        # so some runs finish and others stop after an epoch or two.
        "early_stop": draw(st.sampled_from([None, 0.1, 0.4, 1.5])) if k == 1 else None,
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        "carried": draw(st.booleans()),  # a later round: logits, no teacher
    }


def build(params):
    """(config, per-member (retain_set, forget_set-or-None))."""
    total = sum(params["retain"]) + sum(params["forget"])
    data = make_blobs(num_samples=total, num_classes=3, shape=(1, 4, 4),
                      seed=3, separation=1.2, noise=1.0)
    data = ArrayDataset(images=data.images, labels=data.labels,
                        num_classes=3, name=data.name, dtype=params["dtype"])
    members, start = [], 0
    for num_retain, num_forget in zip(params["retain"], params["forget"]):
        forget_set = data.subset(np.arange(start, start + num_forget)) if num_forget else None
        start += num_forget
        members.append((data.subset(np.arange(start, start + num_retain)), forget_set))
        start += num_retain
    config = GoldfishConfig(
        loss=GoldfishLossConfig(hard_loss=params["hard_loss"]),
        train=TrainConfig(
            epochs=params["epochs"], batch_size=params["batch_size"],
            learning_rate=0.1, momentum=params["momentum"],
            grad_clip=params["grad_clip"],
        ),
        early_stop=EarlyStopConfig(
            delta=params["early_stop"] or 0.0,
            mode="last",
            enabled=params["early_stop"] is not None,
        ),
        adaptive_temperature=params["adaptive"],
    )
    return config, members


def fresh_teacher():
    teacher = factory()
    teacher.load_state_dict(teacher_state())
    return teacher


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@generated(40)
@given(goldfish_cohorts())
def test_stacked_scalar_and_reference_goldfish_agree(params):
    config, members = build(params)
    k = len(members)
    carried = [None] * k
    if params["carried"]:
        carried = [
            reference_unlearn(
                config, factory(), fresh_teacher(), retain, forget,
                np.random.default_rng(0),
            ).teacher_logits
            for retain, forget in members
        ]

    def run_each(unlearn):
        students = [factory() for _ in range(k)]
        rngs = [np.random.default_rng(100 + index) for index in range(k)]
        results = [
            unlearn(
                student,
                None if params["carried"] else fresh_teacher(),
                retain,
                forget,
                rng,
                teacher_logits=logits,
            )
            for student, (retain, forget), rng, logits in zip(students, members, rngs, carried)
        ]
        return students, rngs, results

    want_students, want_rngs, want = run_each(
        lambda *args, **kwargs: reference_unlearn(config, *args, **kwargs)
    )
    got_students, got_rngs, got = run_each(GoldfishUnlearner(config).unlearn)
    for index in range(k):
        assert got[index].epochs_run == want[index].epochs_run
        assert got[index].epoch_losses == want[index].epoch_losses
        assert got[index].stopped_early == want[index].stopped_early
        assert got[index].temperature_used == want[index].temperature_used
        assert_same_bits(got[index].teacher_logits, want[index].teacher_logits)
        assert got_rngs[index].bit_generator.state == want_rngs[index].bit_generator.state
        for key, value in want_students[index].state_dict().items():
            assert_same_bits(got_students[index].state_dict()[key], value)

    shared_teacher = None if params["carried"] else teacher_state()
    tasks = [
        _GoldfishClientTask(
            task_id=index,
            model_factory=factory,
            student_state=factory().state_dict(),
            teacher_state=shared_teacher,
            retain_set=retain,
            forget_set=forget,
            config=config,
            rng_state=capture_rng(np.random.default_rng(100 + index)),
            teacher_logits=logits,
        )
        for index, ((retain, forget), logits) in enumerate(zip(members, carried))
    ]
    runs = [[task.run() for task in tasks]]
    if params["early_stop"] is None:  # else epochs are decided per member
        stack = fuse(tasks)
        assert stack.task_id == tuple(range(k))
        assert stack.model_state is None  # protocol members keep their states
        runs.append(stack.run())
    for results in runs:
        assert len(results) == k
        for index, result in enumerate(results):
            assert result.task_id == index
            assert result.epochs_run == want[index].epochs_run
            assert (
                restore_rng(result.rng_state).bit_generator.state
                == want_rngs[index].bit_generator.state
            )
            if params["carried"]:
                assert result.extra is None
            else:
                assert_same_bits(
                    result.extra["teacher_logits"], want[index].teacher_logits
                )
            for key, value in want_students[index].state_dict().items():
                assert_same_bits(result.state[key], value)


def test_early_stopping_is_refused_by_the_gate_and_by_the_stacked_loop():
    params = {
        "retain": [12, 12], "forget": [4, 4], "batch_size": 4, "epochs": 2,
        "momentum": 0.0, "grad_clip": 0.0, "hard_loss": "cross_entropy",
        "adaptive": False, "early_stop": 0.5, "dtype": np.float64,
    }
    config, members = build(params)
    tasks = [
        _GoldfishClientTask(
            task_id=index, model_factory=factory,
            student_state=factory().state_dict(), teacher_state=teacher_state(),
            retain_set=retain, forget_set=forget, config=config,
            rng_state=capture_rng(np.random.default_rng(index)),
        )
        for index, (retain, forget) in enumerate(members)
    ]
    assert "early stopping" in _GoldfishClientTask.stack_fallback_reason(tasks, None)
    # Run past the gate anyway, the stack refuses rather than stopping
    # every member when the first one's stopper fires.
    with pytest.raises(ValueError, match="early stopping"):
        _GoldfishClientTask.run_stack(tasks)
