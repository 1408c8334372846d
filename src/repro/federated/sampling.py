"""Client participation: sampling strategies and dropout injection.

Real federations never get all clients every round — devices are offline,
slow, or battery-constrained. The paper's Discussion section names exactly
this ("clients may join or leave") as the open challenge its future work
targets. This module supplies the participation layer:

* :class:`FullParticipation` — every client, every round (the paper's
  experimental setting);
* :class:`UniformSampler` — the cross-device standard: a uniform random
  subset of size k per round (McMahan et al.'s C-fraction);
* :class:`WeightedSampler` — probability proportional to dataset size
  (large holders participate more, a common systems heuristic);
* :class:`DropoutInjector` — wraps any sampler and drops each selected
  client iid with probability p *after* selection, modelling mid-round
  failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


class ClientSampler:
    """Interface: choose the participant ids for one round.

    Samplers may additionally track *stragglers*: the event-driven round
    engine (:mod:`repro.federated.engine`) calls :meth:`note_dropped`
    whenever a selected client's simulated latency exceeded the round's
    straggler timeout, so the sampler can guarantee the client is
    reconsidered next round.  The base implementation only records the
    drop; :class:`StragglerAwareSampler` acts on it.
    """

    def sample(
        self, client_ids: Sequence[int], round_index: int, rng: np.random.Generator
    ) -> List[int]:
        raise NotImplementedError

    def note_dropped(self, client_ids: Sequence[int], round_index: int) -> None:
        """Record clients dropped (timed out) after selection this round."""
        log = getattr(self, "_dropped_log", None)
        if log is None:
            log = self._dropped_log = {}
        log.setdefault(round_index, []).extend(int(c) for c in client_ids)

    @property
    def dropped_log(self) -> dict:
        """{round_index: [client_ids]} of every reported straggler drop."""
        return dict(getattr(self, "_dropped_log", {}))

    @staticmethod
    def _check_ids(client_ids: Sequence[int]) -> List[int]:
        ids = list(client_ids)
        if not ids:
            raise ValueError("no clients to sample from")
        if len(ids) != len(set(ids)):
            raise ValueError("client ids must be unique")
        return ids


class FullParticipation(ClientSampler):
    """Everyone participates (the paper's C = 5/15/25 all-in setting)."""

    def sample(self, client_ids, round_index, rng) -> List[int]:
        return sorted(self._check_ids(client_ids))


class UniformSampler(ClientSampler):
    """A uniform random subset of ``num_selected`` clients per round."""

    def __init__(self, num_selected: int) -> None:
        if num_selected < 1:
            raise ValueError(f"num_selected must be >= 1, got {num_selected}")
        self.num_selected = num_selected

    def sample(self, client_ids, round_index, rng) -> List[int]:
        ids = self._check_ids(client_ids)
        if self.num_selected > len(ids):
            raise ValueError(
                f"cannot select {self.num_selected} of {len(ids)} clients"
            )
        chosen = rng.choice(ids, size=self.num_selected, replace=False)
        return sorted(int(c) for c in chosen)


class WeightedSampler(ClientSampler):
    """Sample ``num_selected`` clients with probability ∝ dataset size."""

    def __init__(self, num_selected: int, sizes: Sequence[int]) -> None:
        if num_selected < 1:
            raise ValueError(f"num_selected must be >= 1, got {num_selected}")
        sizes = [int(s) for s in sizes]
        if any(s <= 0 for s in sizes):
            raise ValueError("all dataset sizes must be positive")
        self.num_selected = num_selected
        self.sizes = sizes

    def sample(self, client_ids, round_index, rng) -> List[int]:
        ids = self._check_ids(client_ids)
        if len(ids) != len(self.sizes):
            raise ValueError(
                f"{len(ids)} clients but {len(self.sizes)} sizes configured"
            )
        if self.num_selected > len(ids):
            raise ValueError(
                f"cannot select {self.num_selected} of {len(ids)} clients"
            )
        probabilities = np.asarray(self.sizes, dtype=np.float64)
        probabilities /= probabilities.sum()
        chosen = rng.choice(
            ids, size=self.num_selected, replace=False, p=probabilities
        )
        return sorted(int(c) for c in chosen)


@dataclass
class DropoutInjector(ClientSampler):
    """Drop each selected client iid with probability ``dropout_rate``.

    Guarantees at least ``min_survivors`` clients survive (re-draws the
    dropout mask if too many fall; gives up after 100 attempts and keeps
    the best draw, so pathological rates still terminate).
    """

    base: ClientSampler
    dropout_rate: float
    min_survivors: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.min_survivors < 1:
            raise ValueError(
                f"min_survivors must be >= 1, got {self.min_survivors}"
            )

    def sample(self, client_ids, round_index, rng) -> List[int]:
        selected = self.base.sample(client_ids, round_index, rng)
        if self.dropout_rate == 0.0:
            return selected
        best: List[int] = []
        for _ in range(100):
            keep = rng.random(len(selected)) >= self.dropout_rate
            survivors = [c for c, kept in zip(selected, keep) if kept]
            if len(survivors) > len(best):
                best = survivors
            if len(best) >= self.min_survivors:
                break
        if len(best) < self.min_survivors:
            # All draws catastrophically bad: keep the first
            # ``min_survivors`` clients alive deterministically.
            best = selected[: self.min_survivors]
        return best


@dataclass
class StragglerAwareSampler(ClientSampler):
    """Guarantee that timed-out clients are resampled the next round.

    Wraps any base sampler.  Clients reported through :meth:`note_dropped`
    (the event-driven engine calls it for every straggler-timeout drop)
    are injected into the next round's selection ahead of the base
    sampler's own picks, so a client can be *delayed* by a slow round but
    never starved by one: its data re-enters the federation at the first
    opportunity, which is what keeps deletion-latency accounting honest
    under stragglers.
    """

    base: ClientSampler

    def __post_init__(self) -> None:
        self._retry: List[int] = []

    @property
    def pending_retries(self) -> List[int]:
        """Clients owed a slot in the next selection, oldest drop first."""
        return list(self._retry)

    def sample(self, client_ids, round_index, rng) -> List[int]:
        ids = self._check_ids(client_ids)
        chosen = self.base.sample(ids, round_index, rng)
        if not self._retry:
            return chosen
        known = set(ids)
        eligible = [c for c in self._retry if c in known]
        # The round size stays exactly what the base sampler decided:
        # retries take slots from the base picks rather than growing the
        # round, and retries beyond the round size wait for the next one.
        taken = eligible[: len(chosen)]
        taken_set = set(taken)
        # Overflow retries wait for the next round; clients no longer in
        # the federation (erased since their drop) are forgotten.
        self._retry = [c for c in eligible if c not in taken_set]
        merged = taken + [c for c in chosen if c not in taken_set]
        return merged[: len(chosen)]

    def note_dropped(self, client_ids, round_index) -> None:
        super().note_dropped(client_ids, round_index)
        seen = set(self._retry)
        for client_id in client_ids:
            client_id = int(client_id)
            if client_id not in seen:
                self._retry.append(client_id)
                seen.add(client_id)


@dataclass
class ParticipationLog:
    """Who was selected / survived per round — for experiment reports."""

    selected: List[List[int]]
    survived: List[List[int]]

    @property
    def num_rounds(self) -> int:
        return len(self.selected)

    def participation_rate(self, client_id: int) -> float:
        """Fraction of rounds the client actually contributed to."""
        if self.num_rounds == 0:
            raise ValueError("empty log")
        count = sum(1 for round_ids in self.survived if client_id in round_ids)
        return count / self.num_rounds
