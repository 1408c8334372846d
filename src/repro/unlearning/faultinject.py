"""Deterministic fault injection for deletion-service recovery tests.

Crash-safety claims are only as good as the crashes they were tested
against.  This module produces *seeded, reproducible* faults:

* :class:`KillOnceTask` — wraps any runtime task; the first process that
  runs it dies instantly (``os._exit``), every later attempt runs the
  real task.  Under a :class:`~repro.runtime.pool.WorkerPool` this
  exercises the respawn+resubmit path deterministically — no sleeps, no
  racing the scheduler — and because tasks are pure the retried result
  is bit-identical to an unkilled run.
* :class:`FaultInjector` — a seeded plan over a whole service run:
  plugged into ``UnlearningService`` as the ``task_filter``, it decides
  per chain task whether to wrap it in a kill; :meth:`truncate_journal`
  chops bytes off a journal's tail to simulate a crash mid-append
  (replay must drop the torn record).

Duplicate submissions — the third fault class the recovery tests drive —
need no machinery here: resubmitting a ``request_id`` through the
service *is* the fault, and idempotent dedupe is the assertion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np


@dataclass
class KillOnceTask:
    """Kill the first worker that runs this task; run it for real after.

    The marker file is the "has died once" bit shared between attempts
    (the killed worker's memory is gone, so the bit must live on disk).
    ``os._exit`` skips all cleanup — as close to ``kill -9`` as a task
    can self-inflict — so the pool sees a genuine worker death, not an
    exception result.
    """

    task: Any
    marker_path: str
    exit_code: int = 42

    @property
    def task_id(self):
        return self.task.task_id

    def run(self):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("died\n")
            os._exit(self.exit_code)
        return self.task.run()


class FaultInjector:
    """A seeded fault plan: which chain tasks die, and journal tearing.

    Use as the service's ``task_filter``::

        injector = FaultInjector(tmp_path, seed=7, kill_probability=0.5)
        service = UnlearningService(..., task_filter=injector.task_filter)

    Same seed → same kill schedule, so a recovery test's interrupted run
    is exactly reproducible.  ``max_kills`` bounds the total (each kill
    costs one worker respawn; the pool's ``max_task_retries`` budget must
    cover the per-task maximum or the window legitimately fails).
    """

    def __init__(
        self,
        directory: str,
        seed: int = 0,
        kill_probability: float = 1.0,
        max_kills: Optional[int] = None,
    ) -> None:
        if not 0.0 <= kill_probability <= 1.0:
            raise ValueError(
                f"kill_probability must be in [0, 1], got {kill_probability}"
            )
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.kill_probability = kill_probability
        self.max_kills = max_kills
        self.kills_planned = 0
        self._rng = np.random.default_rng(seed)

    def task_filter(self, window_id: int, tasks: List[Any]) -> List[Any]:
        """The ``UnlearningService`` seam: wrap selected tasks in a kill."""
        wrapped: List[Any] = []
        for position, task in enumerate(tasks):
            budget_left = (
                self.max_kills is None or self.kills_planned < self.max_kills
            )
            if budget_left and self._rng.random() < self.kill_probability:
                marker = os.path.join(
                    self.directory,
                    f"kill-w{window_id}-p{position}-t{task.task_id}",
                )
                self.kills_planned += 1
                wrapped.append(KillOnceTask(task=task, marker_path=marker))
            else:
                wrapped.append(task)
        return wrapped

    @staticmethod
    def truncate_journal(path: str, drop_bytes: int) -> int:
        """Chop ``drop_bytes`` off the journal's tail (a torn append).

        Returns the journal's new size.  Replay must treat the resulting
        partial final line as never-durably-written.
        """
        size = os.path.getsize(path)
        new_size = max(0, size - drop_bytes)
        with open(path, "r+b") as handle:
            handle.truncate(new_size)
        return new_size
