"""The seeded fault plan the service recovery tests run under.

``tests/unlearning/test_service.py`` asserts recovery *given* the faults;
these tests pin the faults themselves: which tasks a plan kills, that a
seed reproduces the plan, that a kill is a real process death exactly
once, and how journal tearing sizes the file.
"""

import multiprocessing
import os
from dataclasses import dataclass

import pytest

from repro.unlearning import FaultInjector, KillOnceTask


@dataclass
class EchoTask:
    task_id: int

    def run(self):
        return ("ran", self.task_id)


def tasks(count, first_id=0):
    return [EchoTask(task_id=first_id + i) for i in range(count)]


def kill_plan(injector, windows, per_window):
    """Which ``(window, position)`` slots the injector wraps in a kill."""
    plan = []
    for window in range(windows):
        for position, task in enumerate(
            injector.task_filter(window, tasks(per_window, first_id=10 * window))
        ):
            if isinstance(task, KillOnceTask):
                plan.append((window, position))
    return plan


class TestFaultInjector:
    @pytest.mark.parametrize("probability", [-0.1, 1.01, 2.0])
    def test_probability_outside_unit_interval_rejected(self, tmp_path, probability):
        with pytest.raises(ValueError, match="kill_probability"):
            FaultInjector(str(tmp_path), kill_probability=probability)

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_probability_bounds_accepted(self, tmp_path, probability):
        assert FaultInjector(str(tmp_path), kill_probability=probability).kills_planned == 0

    def test_constructor_creates_its_directory(self, tmp_path):
        directory = tmp_path / "markers" / "deep"
        FaultInjector(str(directory))
        assert directory.is_dir()

    def test_probability_zero_wraps_nothing(self, tmp_path):
        injector = FaultInjector(str(tmp_path), kill_probability=0.0)
        batch = tasks(6)
        assert injector.task_filter(0, batch) == batch
        assert injector.kills_planned == 0

    def test_probability_one_wraps_every_task_in_order(self, tmp_path):
        injector = FaultInjector(str(tmp_path), kill_probability=1.0)
        batch = tasks(4)
        wrapped = injector.task_filter(0, batch)
        assert all(isinstance(task, KillOnceTask) for task in wrapped)
        assert [task.task for task in wrapped] == batch
        assert injector.kills_planned == 4

    def test_max_kills_bounds_the_plan_across_windows(self, tmp_path):
        injector = FaultInjector(str(tmp_path), kill_probability=1.0, max_kills=3)
        assert kill_plan(injector, windows=3, per_window=2) == [(0, 0), (0, 1), (1, 0)]
        assert injector.kills_planned == 3

    def test_same_seed_same_schedule(self, tmp_path):
        plans = [
            kill_plan(
                FaultInjector(str(tmp_path / str(run)), seed=7, kill_probability=0.5),
                windows=4,
                per_window=8,
            )
            for run in range(2)
        ]
        assert plans[0] == plans[1]
        assert 0 < len(plans[0]) < 32

    def test_seed_changes_the_schedule(self, tmp_path):
        plans = {
            tuple(
                kill_plan(
                    FaultInjector(str(tmp_path / str(seed)), seed=seed, kill_probability=0.5),
                    windows=4,
                    per_window=8,
                )
            )
            for seed in range(3)
        }
        assert len(plans) > 1

    def test_marker_names_window_position_and_task(self, tmp_path):
        injector = FaultInjector(str(tmp_path), kill_probability=1.0)
        wrapped = injector.task_filter(5, [EchoTask(task_id=31), EchoTask(task_id=17)])
        assert [task.marker_path for task in wrapped] == [
            os.path.join(str(tmp_path), "kill-w5-p0-t31"),
            os.path.join(str(tmp_path), "kill-w5-p1-t17"),
        ]

    def test_truncate_journal_returns_the_new_size(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"0123456789")
        assert FaultInjector.truncate_journal(str(path), 4) == 6
        assert path.read_bytes() == b"012345"

    def test_truncate_journal_clamps_at_empty(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"abc")
        assert FaultInjector.truncate_journal(str(path), 10) == 0
        assert path.read_bytes() == b""


def _run_in_child(task):
    task.run()


class TestKillOnceTask:
    def test_forwards_the_wrapped_task_id(self, tmp_path):
        task = KillOnceTask(task=EchoTask(task_id=9), marker_path=str(tmp_path / "m"))
        assert task.task_id == 9

    def test_runs_the_real_task_once_the_marker_exists(self, tmp_path):
        marker = tmp_path / "m"
        marker.write_text("died\n")
        task = KillOnceTask(task=EchoTask(task_id=4), marker_path=str(marker))
        assert task.run() == ("ran", 4)
        assert task.run() == ("ran", 4)

    def test_first_run_kills_its_process_and_leaves_the_marker(self, tmp_path):
        marker = tmp_path / "m"
        task = KillOnceTask(task=EchoTask(task_id=2), marker_path=str(marker), exit_code=37)
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_run_in_child, args=(task,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 37
        assert marker.read_text() == "died\n"
        assert task.run() == ("ran", 2)
