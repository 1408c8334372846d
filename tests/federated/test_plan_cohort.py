"""``plan_cohort`` is a partition of a mixed task batch.

The planner groups a batch by ``(type, stack_key())``, fuses the groups
its kinds' gates admit and splits each across the workers; everything
else dispatches as itself.  Over generated batches that mix
``TrainTask``s (one or two codecs, one or two broadcast bases, stamped or
not, step counts that do or do not line up), SISA ``ChainTask``s and a
kind with no ``stack_key`` (B3's client task), and a worker count of 1–4:

* every original task lands in exactly one ``(unit, member)`` slot, and
  every slot of every unit belongs to exactly one task;
* no unit repeats a member;
* every fused unit's members share ``(type, stack_key())``;
* every recorded fallback reason is distinct;
* ``scatter_results`` over the units' runs equals each task's own
  ``run()``, bit for bit.
"""

from collections import defaultdict
from dataclasses import fields, is_dataclass

import numpy as np
from hypothesis import given, strategies as st

from repro.federated.vectorized import plan_cohort, scatter_results
from repro.runtime.codec import state_version
from repro.runtime.task import StackedTask, TrainTask, capture_rng
from repro.training import TrainConfig
from repro.unlearning import IncompetentTeacherConfig
from repro.unlearning.protocols import _IncompetentClientTask

from ..conftest import generated, make_blobs
from .test_stacked_task import build_chains, factory, other_state

BATCH_SIZE = 4
CONFIG = TrainConfig(epochs=1, batch_size=BATCH_SIZE, learning_rate=0.1)


@st.composite
def mixed_batches(draw):
    codecs = draw(st.sampled_from([["raw"], ["delta"], ["raw", "delta"]]))
    num_bases = draw(st.integers(1, 2))
    train = [
        {
            "codec": draw(st.sampled_from(codecs)),
            "basis": draw(st.integers(0, num_bases - 1)),
            "stamped": draw(st.booleans()),
            # Mostly two steps of 4 (stacks), sometimes one or three.
            "size": draw(st.one_of(st.integers(5, 8), st.integers(1, 12))),
        }
        for _ in range(draw(st.integers(0, 6)))
    ]
    chains = [
        {
            "slice_sizes": draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)),
            "from_slice": 0,
            "deleted": draw(st.sampled_from(["none", "some"])),
            "prefix": 1,
            "seed": draw(st.integers(0, 2**16)),
        }
        for _ in range(draw(st.integers(0, 3)))
    ]
    return {
        "train": train,
        "num_bases": num_bases,
        "chains": chains,
        "b3": draw(st.integers(0, 2)),
        "workers": draw(st.integers(1, 4)),
        "order_seed": draw(st.integers(0, 2**16)),
    }


def build(params):
    bases = [other_state(200 + index) for index in range(params["num_bases"])]
    sizes = [spec["size"] for spec in params["train"]]
    data = make_blobs(num_samples=max(1, sum(sizes)), num_classes=3, shape=(1, 4, 4),
                      seed=5, separation=1.2, noise=1.0)
    tasks, start = [], 0
    for index, spec in enumerate(params["train"]):
        basis = bases[spec["basis"]]
        tasks.append(TrainTask(
            task_id=f"train-{index}",
            model_factory=factory,
            dataset=data,
            config=CONFIG,
            rng_state=capture_rng(np.random.default_rng(index)),
            model_state=basis,
            indices=np.arange(start, start + spec["size"]),
            codec=spec["codec"],
            model_version=state_version(basis) if spec["stamped"] else None,
        ))
        start += spec["size"]
    if params["chains"]:
        tasks += build_chains({"chains": params["chains"], "batch_size": BATCH_SIZE})
    b3_data = make_blobs(num_samples=14, num_classes=3, shape=(1, 4, 4), seed=6)
    for index in range(params["b3"]):
        tasks.append(_IncompetentClientTask(
            task_id=f"b3-{index}",
            model_factory=factory,
            student_state=other_state(300 + index),
            competent_state=other_state(300 + index),
            incompetent_state=other_state(400 + index),
            retain_set=b3_data.subset(np.arange(4, 14)),
            forget_set=b3_data.subset(np.arange(4)),
            config=IncompetentTeacherConfig(train=CONFIG),
            rng_state=capture_rng(np.random.default_rng(50 + index)),
        ))
    order = np.random.default_rng(params["order_seed"]).permutation(len(tasks))
    return [tasks[i] for i in order]


def assert_identical(got, want):
    """Field by field, array bytes included.  A chain's
    ``fallback_reasons`` say how a stacked run went (a stage that trained
    alone inside the stack), which a lone run has nothing to say about;
    they are checked apart."""
    if is_dataclass(want):
        assert type(got) is type(want)
        for spec in fields(want):
            if spec.name == "fallback_reasons":
                reasons = getattr(got, spec.name)
                assert all(isinstance(reason, str) and reason for reason in reasons)
                assert len(set(reasons)) == len(reasons)
                continue
            assert_identical(getattr(got, spec.name), getattr(want, spec.name))
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key, value in want.items():
            assert_identical(got[key], value)
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for one, other in zip(got, want):
            assert_identical(one, other)
    else:
        assert got == want


@generated(30)
@given(mixed_batches())
def test_plan_is_a_partition_and_scatters_back_bit_for_bit(params):
    tasks = build(params)
    plan = plan_cohort(tasks, params["workers"])

    # Every task has one slot, and the slots are exactly the units' positions.
    assert len(plan.slots) == len(tasks)
    assert len(set(plan.slots)) == len(tasks)
    positions = set()
    for unit_index, unit in enumerate(plan.units):
        if isinstance(unit, StackedTask):
            ids = [member.task_id for member in unit.members]
            assert len(set(ids)) == len(ids)  # no unit repeats a member
            positions.update((unit_index, offset) for offset in range(len(ids)))
        else:
            positions.add((unit_index, None))
    assert positions == set(plan.slots)

    fused = defaultdict(list)
    for task, (unit_index, offset) in zip(tasks, plan.slots):
        unit = plan.units[unit_index]
        if offset is None:
            assert unit is task
        else:
            assert unit.members[offset].task_id == task.task_id
            fused[unit_index].append(task)
    for members in fused.values():
        assert len({(type(task), task.stack_key()) for task in members}) == 1
    assert plan.fused_groups == len(plan.chunk_counts)
    assert sum(plan.chunk_counts) == len(fused)
    assert all(1 <= count <= params["workers"] for count in plan.chunk_counts)

    assert len(set(plan.fallback_reasons)) == len(plan.fallback_reasons)
    if params["b3"]:
        assert (
            "no vectorized implementation for _IncompetentClientTask"
            in plan.fallback_reasons
        )

    got = scatter_results(plan, [unit.run() for unit in plan.units])
    assert_identical(got, [task.run() for task in tasks])
