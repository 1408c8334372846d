"""Property test: the Goldfish client task is the lone unlearning loop.

``_GoldfishClientTask.run`` (the federated flow's per-client unit) runs
``GoldfishUnlearner.unlearn``.  One list of clients is drawn per
example — client count, retain sizes, forget sets (none / equal /
unequal), adaptive temperature, hard loss, the Eq. 7 early stopper,
carried logits — and every client runs three
ways: ``task.run()``, ``unlearn`` itself, and the loop as it stood
before it was shared (``tests/reference_loops.py``).  All three must
agree: student states, epochs run, generator positions and the teacher
logits handed back, bit for bit, with the per-epoch losses and the stop
decision of ``unlearn`` equal to the reference's.
"""

import numpy as np
from hypothesis import given, strategies as st

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
        "hard_loss": draw(st.sampled_from(sorted(HARD_LOSSES))),
        "adaptive": draw(st.booleans()),
        # Eq. 7 threshold, None = stopper off; tight, loose and in between,
        # so some runs finish and others stop after an epoch or two.
        "early_stop": draw(st.sampled_from([None, 0.1, 0.4, 1.5])),
        "carried": draw(st.booleans()),  # a later round: logits, no teacher
    }


def build(params):
    """(config, per-member (retain_set, forget_set-or-None), the data they
    were cut from, per-member (retain_indices, forget_indices-or-None))."""
    total = sum(params["retain"]) + sum(params["forget"])
    data = make_blobs(num_samples=total, num_classes=3, shape=(1, 4, 4),
                      seed=3, separation=1.2, noise=1.0)
    members, selections, start = [], [], 0
    for num_retain, num_forget in zip(params["retain"], params["forget"]):
        forget_indices = np.arange(start, start + num_forget) if num_forget else None
        forget_set = None if forget_indices is None else data.subset(forget_indices)
        start += num_forget
        retain_indices = np.arange(start, start + num_retain)
        members.append((data.subset(retain_indices), forget_set))
        selections.append((retain_indices, forget_indices))
        start += num_retain
    config = GoldfishConfig(
        loss=GoldfishLossConfig(hard_loss=params["hard_loss"]),
        train=TrainConfig(
            epochs=params["epochs"], batch_size=params["batch_size"],
            learning_rate=0.1, momentum=params["momentum"],
        ),
        early_stop=EarlyStopConfig(
            delta=params["early_stop"] or 0.0,
            mode="last",
            enabled=params["early_stop"] is not None,
        ),
        adaptive_temperature=params["adaptive"],
    )
    return config, members, data, selections


def fresh_teacher():
    teacher = factory()
    teacher.load_state_dict(teacher_state())
    return teacher


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@generated(40)
@given(goldfish_cohorts())
def test_task_unlearn_and_reference_goldfish_agree(params):
    config, members, data, selections = build(params)
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
        assert len(got[index].history) == len(want[index].history)
        assert got[index].history.losses == want[index].history.losses
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
            model_state=factory().state_dict(),
            teacher_state=shared_teacher,
            dataset=data,
            indices=retain_indices,
            forget_indices=forget_indices,
            config=config,
            rng_state=capture_rng(np.random.default_rng(100 + index)),
            teacher_logits=logits,
        )
        for index, ((retain_indices, forget_indices), logits) in enumerate(
            zip(selections, carried)
        )
    ]
    for index, task in enumerate(tasks):
        result = task.run()
        assert result.task_id == index
        assert len(result.history) == len(want[index].history)
        assert (
            restore_rng(result.rng_state).bit_generator.state
            == want_rngs[index].bit_generator.state
        )
        if params["carried"]:
            assert result.extra is None
        else:
            assert_same_bits(result.extra["teacher_logits"], want[index].teacher_logits)
        for key, value in want_students[index].state_dict().items():
            assert_same_bits(result.state[key], value)

